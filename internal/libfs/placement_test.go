package libfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/race"
)

// placementNames returns n distinct names of 7-21 bytes: prefix and a
// random tail, as the handoff benchmark draws them.
func placementNames(rng *rand.Rand, seen map[string]bool, prefix string, n int) []string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	var out []string
	for len(out) < n {
		b := make([]byte, 6+rng.Intn(15))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if name := prefix + string(b); !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// pageSlots returns the record slots, live and dead, on log page p.
func pageSlots(dev *pmem.Device, p uint64) int64 {
	var n int64
	layout.ScanPage(dev, p, make([]byte, layout.MaxName), func(layout.RawDentry) bool {
		n++
		return true
	})
	return n
}

// handoffRig is the repo benchmark's handoff workload on two LibFS apps.
// Setup fills /h with 220 static names and 4 data files of 512 blocks;
// each app opens the data files once and keeps the descriptors across its
// releases. Turn k is app k%2's: it unlinks the peer's previous batch of
// 16 names, creates its own batch (k/2)%8, overwrites one block of each
// data file and releases everything.
type handoffRig struct {
	dev    *pmem.Device
	ctrl   *kernel.Controller
	fss    [2]*FS
	ws     [2]*Thread                  // each app appends on a tail of its own, as the benchmark's do
	static []string                    // the static names, the data files last
	pool   [2][handoffBatches][]string // paths
	fds    [2][handoffShared]fsapi.FD
	block  []byte
	turns  int
}

const (
	handoffDir        = "/h"
	handoffStatics    = 220
	handoffBatch      = 16
	handoffBatches    = 8
	handoffShared     = 4
	handoffFileBlocks = 512
)

func newHandoffRig(t testing.TB) *handoffRig {
	r := &handoffRig{dev: pmem.New(64<<20, nil), block: make([]byte, layout.PageSize)}
	var err error
	if r.ctrl, err = kernel.Format(r.dev, kernel.Options{InodeCap: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	for a := range r.fss {
		r.fss[a] = New(r.ctrl, r.ctrl.RegisterApp(0, 0), Options{})
		r.ws[a] = r.fss[a].NewThread(a).(*Thread)
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	w := r.ws[0]
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Mkdir(handoffDir))
	r.static = placementNames(rng, seen, "s", handoffStatics)
	r.static = append(r.static, placementNames(rng, seen, "data", handoffShared)...)
	for i, n := range r.static {
		must(w.Create(handoffDir + "/" + n))
		if i < handoffStatics {
			continue
		}
		fd, err := w.Open(handoffDir + "/" + n)
		must(err)
		for b := int64(0); b < handoffFileBlocks; b++ {
			_, err := w.WriteAt(fd, r.block, b*layout.PageSize)
			must(err)
		}
		must(w.Close(fd))
	}
	for a := range r.pool {
		for b := range r.pool[a] {
			for _, n := range placementNames(rng, seen, string(rune('a'+a)), handoffBatch) {
				r.pool[a][b] = append(r.pool[a][b], handoffDir+"/"+n)
			}
		}
	}
	for a := range r.fss {
		for i, n := range r.static[handoffStatics:] {
			fd, err := r.ws[a].Open(handoffDir + "/" + n)
			must(err)
			r.fds[a][i] = fd
		}
		must(r.fss[a].ReleaseAll())
	}
	return r
}

// work runs the next turn up to its release: the unlinks, the creates and
// the overwrites.
func (r *handoffRig) work(t testing.TB) {
	k, a := r.turns, r.turns%2
	w := r.ws[a]
	if k > 0 {
		for _, p := range r.pool[1-a][((k-1)/2)%handoffBatches] {
			if err := w.Unlink(p); err != nil {
				t.Fatalf("turn %d: %v", k, err)
			}
		}
	}
	for _, p := range r.pool[a][(k/2)%handoffBatches] {
		if err := w.Create(p); err != nil {
			t.Fatalf("turn %d: %v", k, err)
		}
	}
	for i, fd := range r.fds[a] {
		off := int64((k*7+i*131)%handoffFileBlocks) * layout.PageSize
		if _, err := w.WriteAt(fd, r.block, off); err != nil {
			t.Fatalf("turn %d: %v", k, err)
		}
	}
}

// release ends the turn: the app's ReleaseAll.
func (r *handoffRig) release(t testing.TB) {
	if err := r.fss[r.turns%2].ReleaseAll(); err != nil {
		t.Fatalf("turn %d: %v", r.turns, err)
	}
	r.turns++
}

// TestHandoffTurnPlacement drives the handoff rig. A turn's verification
// reads the log pages stored to since the last one, and those the previous
// turn stored to (the peer's mapping was live then, so their dirty bits
// were harvested, and its unmap makes them due a reread). From turn 3 on
// none of them may hold a static name, and the verification parses at most
// 48 records. Appending a hold's names onto the verified, half-full page
// that holds the last static names puts that page, and its ~100 records,
// into every turn's read set.
func TestHandoffTurnPlacement(t *testing.T) {
	r := newHandoffRig(t)
	staticPages := map[uint64]bool{}
	w := r.ws[0]
	mi, err := w.resolve(handoffDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.static {
		_, ref, ok, err := r.fss[0].lookupInDir(w, mi, n)
		if err != nil || !ok {
			t.Fatalf("static name %q: found %v, %v", n, ok, err)
		}
		staticPages[layout.DentryRef(ref).Page()] = true
	}

	vs := r.ctrl.VerifierStats()
	var lastDirty map[uint64]bool
	for k := 0; k < 24; k++ {
		a := k % 2
		r.work(t)
		d, err := r.ws[a].resolve(handoffDir)
		if err != nil {
			t.Fatal(err)
		}
		chain := slices.Concat(r.fss[a].dirLogPages(d.dir.Load())...)
		dirty := map[uint64]bool{}
		for _, p := range chain {
			if r.dev.Dirty(p) {
				dirty[p] = true
			}
		}
		recs := vs.Dentries.Load()
		r.release(t)
		recs = vs.Dentries.Load() - recs

		var want int64
		var read, staticRead []uint64
		for _, p := range chain {
			if dirty[p] || lastDirty[p] {
				want += pageSlots(r.dev, p)
				read = append(read, p)
				if staticPages[p] {
					staticRead = append(staticRead, p)
				}
			}
		}
		lastDirty = dirty
		t.Logf("turn %d: %d records on pages %v of %d", k, recs, read, len(chain))
		if k < 3 {
			continue
		}
		if recs != want {
			t.Fatalf("turn %d: the verification parsed %d records; the pages stored to this turn and last hold %d", k, recs, want)
		}
		if len(staticRead) > 0 || recs > 48 {
			t.Fatalf("turn %d: the verification parsed %d records (want <= 48) on pages %v; %v hold static names",
				k, recs, read, staticRead)
		}
	}
}

// TestHandoffTurnAllocations pins what a handoff turn leaves on the Go
// heap, with kernel.TestHandoffTurnAllocations the kernel's part of it.
// Most of it outlives the turn: per create the minode, and on the
// kernel's side its shadow entry, snapshot and mapping; the names, each
// once in the kernel's view and once in the peer's rebuilt table; and the
// mappings and rebuilt directory tables of the lease misses. The release's
// lists, the kernel's results, the inode table's leaves, an unlinked
// minode's retire-queue node (the minode itself) and a shared file's block
// index, which an overwrite in place leaves as it was, are reused from
// turn to turn.
func TestHandoffTurnAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := newHandoffRig(t)
	for r.turns < 2*handoffBatches {
		r.work(t)
		r.release(t)
	}
	const limit = 144
	got, _ := allocsPerOp(2*handoffBatches, func(int) {
		r.work(t)
		r.release(t)
	})
	t.Logf("%.2f allocations a turn", got)
	if got > limit {
		t.Fatalf("a handoff turn allocates %.2f objects, want at most %v", got, limit)
	}
}

// TestPlacementLogBounds bounds the log growth of the placement rule where
// it cannot help. An app that holds the directory for one create at a
// time finds the tail page verified at every create, and starts a page
// whenever it is half full: the log takes at most twice the pages it did
// when appends always filled the tail page (12 for these 2 000 names).
// A directory the kernel never verified links a page only when a record
// does not fit, so its log is the same 9 pages as before the rule.
func TestPlacementLogBounds(t *testing.T) {
	boot := func(t *testing.T) (*FS, *Thread) {
		dev := pmem.New(64<<20, nil)
		ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 13})
		if err != nil {
			t.Fatal(err)
		}
		fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
		w := th(t, fs)
		if err := w.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		return fs, w
	}

	t.Run("one-create-holds", func(t *testing.T) {
		fs, w := boot(t)
		if err := fs.ReleaseAll(); err != nil {
			t.Fatal(err)
		}
		vs := kctl(fs).VerifierStats()
		recs := vs.Dentries.Load()
		for i := 0; i < 2000; i++ {
			if err := w.Create(fmt.Sprintf("/d/f%05d", i)); err != nil {
				t.Fatal(err)
			}
			if err := fs.ReleaseAll(); err != nil {
				t.Fatal(err)
			}
		}
		pages := logPages(t, fs, w, "/d")
		t.Logf("%d log pages, %d records parsed", pages, vs.Dentries.Load()-recs)
		if pages > 2*12 {
			t.Fatalf("2 000 one-create holds left %d log pages, want <= %d", pages, 2*12)
		}
	})

	t.Run("never-verified", func(t *testing.T) {
		fs, w := boot(t)
		rng := rand.New(rand.NewSource(1))
		names := placementNames(rng, map[string]bool{}, "m", 1024)
		for cycle := 0; cycle < 3; cycle++ {
			for _, n := range names {
				if err := w.Create("/d/" + n); err != nil {
					t.Fatal(err)
				}
			}
			for i, n := range names {
				if i%2 == 0 {
					if err := w.Rename("/d/"+n, "/d/r"+n); err != nil {
						t.Fatal(err)
					}
					n = "r" + n
				}
				if err := w.Unlink("/d/" + n); err != nil {
					t.Fatal(err)
				}
			}
		}
		if pages := logPages(t, fs, w, "/d"); pages != 9 {
			t.Fatalf("the never-verified log has %d pages, want the 9 it had before the placement rule", pages)
		}
	})
}
