package libfs

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/race"
)

// allocsPerOp is testing.AllocsPerRun without the rounding down: the heap
// objects one call of op allocates, and their bytes, averaged over runs
// calls, after one call to warm up.
func allocsPerOp(runs int, op func(i int)) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestOpPathAllocations pins what an operation of ArckFS+ leaves on the Go
// heap: nothing, unless it makes something the file system keeps.
func TestOpPathAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Mkdir("/d"))
	must(w.Mkdir("/d/e"))
	must(w.Create("/d/e/f"))
	fd, err := w.Open("/d/e/f")
	must(err)
	block := make([]byte, 4096)
	for off := int64(0); off < 8*4096; off += 4096 {
		if _, err := w.WriteAt(fd, block, off); err != nil {
			t.Fatal(err)
		}
	}
	// slack is what amortised growth may add to a limit: a slab of entries
	// every 256th insert, an inode-table leaf every 256th number, the retire
	// queue and the freelists doubling.
	const runs, slack = 200, 0.1
	paths := make([]string, runs+1)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d/e/n%04d", i)
	}
	const lifeNames = 1024
	life := make([]string, lifeNames)
	for i := range life {
		life[i] = fmt.Sprintf("/d/life/f%04d", i)
	}

	type pin struct {
		op    string
		limit float64
		// bytes, when set, pins the bytes the operation allocates too.
		bytes float64
		run   func(i int)
	}
	check := func(pin pin) {
		got, bytes := allocsPerOp(runs, pin.run)
		t.Logf("%-32s %.3f allocations/op, %.0f B/op", pin.op, got, bytes)
		if got > pin.limit+slack {
			t.Errorf("%s allocates %.3f objects an operation, want at most %v", pin.op, got, pin.limit)
		}
		if pin.bytes > 0 && bytes > pin.bytes {
			t.Errorf("%s allocates %.0f bytes an operation, want at most %.0f", pin.op, bytes, pin.bytes)
		}
	}
	for _, pin := range []pin{
		{"Stat", 0, 0, func(int) {
			if st, err := w.Stat("/d/e/f"); err != nil || st.Size != 8*4096 {
				t.Fatalf("Stat = %+v, %v", st, err)
			}
		}},
		{"Open+Close", 0, 0, func(int) {
			fd, err := w.Open("//d/e//f")
			must(err)
			must(w.Close(fd))
		}},
		{"ReadAt 4 KiB", 0, 0, func(i int) {
			if n, err := w.ReadAt(fd, block, int64(i%8)*4096); n != 4096 || err != nil {
				t.Fatalf("ReadAt = %d, %v", n, err)
			}
		}},
		{"WriteAt 4 KiB overwrite", 0, 0, func(i int) {
			if n, err := w.WriteAt(fd, block, int64(i%8)*4096); n != 4096 || err != nil {
				t.Fatalf("WriteAt = %d, %v", n, err)
			}
		}},
		// Nothing per rename: the retired entry is not back from its grace
		// period when the next rename wants one, which is the slack.
		{"Rename within a directory", 0, 0, func(i int) {
			from, to := "/d/e/f", "/d/e/g"
			if i%2 == 1 {
				from, to = to, from
			}
			must(w.Rename(from, to))
		}},
		// The minode with its block index, one object. The inode table's
		// slot for it is in a leaf made once per 256 numbers and kept, the
		// name is the caller's string and the entry comes out of a slab.
		{"Create", 1, 0, func(i int) { must(w.Create(paths[i])) }},
		// Nothing: the minode is its own retire-queue node, and carries its
		// inode number past the grace period.
		{"Unlink of a fresh file", 0, 0, func(i int) { must(w.Unlink(paths[i])) }},
	} {
		check(pin)
	}

	// A removed directory's state waits for the next Mkdir in a sync.Pool,
	// which a collection may empty: these rows measure with the collector
	// off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, pin := range []pin{
		// The minode. The directory's hash table, cursors and page list are
		// the state of the one removed a grace period before.
		{"Mkdir+Rmdir of a fresh directory", 1, 0, func(int) {
			must(w.Mkdir("/d/e/sub"))
			must(w.Rmdir("/d/e/sub"))
			fs.dom.Barrier()
		}},
		// A directory filled with 1 024 names, emptied and removed: the
		// minodes it creates (288 B a file's, 208 B its own: 295 120 B),
		// and nothing of its index, which it inherits from the one before
		// at the size that one grew to.
		{"Life of a 1 024-name directory", lifeNames + 1, 300_000, func(int) {
			must(w.Mkdir("/d/life"))
			for _, p := range life {
				must(w.Create(p))
			}
			for _, p := range life {
				must(w.Unlink(p))
			}
			must(w.Rmdir("/d/life"))
			fs.dom.Barrier()
		}},
	} {
		check(pin)
	}
}

// TestStatNeverTears drives the attribute cache the way a directory's is
// driven — several writers, each publishing a triple whose fields determine
// one another — and checks that no reader ever sees fields of two updates.
// Run under -race at GOMAXPROCS 1, 2 and 4: on one core a reader that finds
// a writer inside has to yield for it.
func TestStatNeverTears(t *testing.T) {
	mi := newFileMinode(7, 1, 0)
	mi.cacheAttrs(0, 0, 0)
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := uint64(1); w <= 3; w++ {
		writers.Add(1)
		go func(w uint64) {
			defer writers.Done()
			for i := uint64(0); i < 20000; i++ {
				v := i*4 + w
				mi.cacheAttrs(v, uint16(v), 3*v)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				st := mi.stat()
				if st.MTime != 3*st.Size || st.Nlink != uint16(st.Size) || st.Ino != 7 || st.Dir {
					t.Errorf("torn attributes: %+v", st)
					return
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
}

// TestStatVsConcurrentWriters is the same property through the API:
// creators filling one directory from several threads while another appends
// to a file in it, and a reader that Stats both. Every file Stat must be a
// (size, mtime) pair the appender published — it is the file's only writer,
// so it records each by a Stat of its own — and the directory's size never
// exceeds what was created or runs backwards.
func TestStatVsConcurrentWriters(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	setup := th(t, fs)
	if err := setup.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := setup.Create("/d/log"); err != nil {
		t.Fatal(err)
	}
	const creators, perCreator, appends = 3, 150, 300

	// published maps size to mtime, as the appender Stats them; the
	// reader checks what it saw against it once the writers are done.
	var pubMu sync.Mutex
	published := map[uint64]uint64{}
	publish := func(st fsapi.Stat) {
		pubMu.Lock()
		published[st.Size] = st.MTime
		pubMu.Unlock()
	}
	first, err := setup.Stat("/d/log")
	if err != nil {
		t.Fatal(err)
	}
	publish(first)

	var stop atomic.Bool
	var writers, reader sync.WaitGroup
	for c := 0; c < creators; c++ {
		writers.Add(1)
		go func(c int) {
			defer writers.Done()
			w := fs.NewThread(c + 1)
			for i := 0; i < perCreator; i++ {
				if err := w.Create(fmt.Sprintf("/d/c%d-%d", c, i)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
		}(c)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		w := fs.NewThread(creators + 1)
		fd, err := w.Open("/d/log")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		chunk := make([]byte, 512)
		for i := 0; i < appends; i++ {
			// Publish before the write can be seen: the reader may Stat the
			// new pair the moment WriteAt stores it, so the pair is recorded
			// from the appender's own Stat and the reader checks at the end.
			if _, err := w.WriteAt(fd, chunk, int64(i*len(chunk))); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			st, err := w.Stat("/d/log")
			if err != nil {
				t.Errorf("stat: %v", err)
				return
			}
			publish(st)
		}
	}()

	var seen []fsapi.Stat
	reader.Add(1)
	go func() {
		defer reader.Done()
		r := fs.NewThread(creators + 2)
		var lastDir uint64
		for !stop.Load() {
			d, err := r.Stat("/d")
			if err != nil || !d.Dir || d.Nlink != 2 || d.Size < lastDir || d.Size > 1+creators*perCreator {
				t.Errorf("directory Stat = %+v, %v (last size %d)", d, err, lastDir)
				return
			}
			lastDir = d.Size
			f, err := r.Stat("/d/log")
			if err != nil || f.Dir || f.Nlink != 1 {
				t.Errorf("file Stat = %+v, %v", f, err)
				return
			}
			if n := len(seen); n == 0 || seen[n-1] != f {
				seen = append(seen, f)
			}
		}
	}()
	writers.Wait()
	stop.Store(true)
	reader.Wait()

	for _, st := range seen {
		if mtime, ok := published[st.Size]; !ok || mtime != st.MTime {
			t.Fatalf("reader saw size %d with mtime %d; the appender published mtime %v for that size", st.Size, st.MTime, mtime)
		}
	}
	if d, err := setup.Stat("/d"); err != nil || d.Size != 1+creators*perCreator {
		t.Fatalf("final directory Stat = %+v, %v", d, err)
	}
}
