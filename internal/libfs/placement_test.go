package libfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
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

// TestHandoffTurnPlacement drives the handoff benchmark's turn through two
// LibFS apps: after a setup of 220 static names and 4 data files, each
// turn unlinks the peer's 16 names, creates 16 of its own and releases
// everything. A turn's verification reads the log pages stored to since
// the last one, and those the previous turn stored to (the peer's mapping
// was live then, so their dirty bits were harvested, and its unmap makes
// them due a reread). From turn 3 on none of them may hold a static name,
// and the verification parses at most 48 records. Appending a hold's names
// onto the verified, half-full page that holds the last static names puts
// that page, and its ~100 records, into every turn's read set.
func TestHandoffTurnPlacement(t *testing.T) {
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	fss := [2]*FS{New(ctrl, ctrl.RegisterApp(0, 0), Options{}), New(ctrl, ctrl.RegisterApp(0, 0), Options{})}
	// Each app appends on a tail of its own, as the benchmark's do.
	ws := [2]*Thread{fss[0].NewThread(0).(*Thread), fss[1].NewThread(1).(*Thread)}
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}

	const dir, statics, batch, batches = "/h", 220, 16, 8
	w := ws[0]
	if err := w.Mkdir(dir); err != nil {
		t.Fatal(err)
	}
	static := placementNames(rng, seen, "s", statics)
	static = append(static, placementNames(rng, seen, "data", 4)...)
	for i, n := range static {
		if err := w.Create(dir + "/" + n); err != nil {
			t.Fatal(err)
		}
		if i >= statics { // a data file
			fd, err := w.Open(dir + "/" + n)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.WriteAt(fd, make([]byte, layout.PageSize), 0); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(fd); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fss[0].ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	staticPages := map[uint64]bool{}
	mi, err := w.resolve(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range static {
		_, r, ok, err := fss[0].lookupInDir(w, mi, n)
		if err != nil || !ok {
			t.Fatalf("static name %q: found %v, %v", n, ok, err)
		}
		staticPages[layout.DentryRef(r).Page()] = true
	}
	var pool [2][batches][]string
	for a := range pool {
		for b := range pool[a] {
			pool[a][b] = placementNames(rng, seen, string(rune('a'+a)), batch)
		}
	}

	vs := ctrl.VerifierStats()
	var lastDirty map[uint64]bool
	for k := 0; k < 24; k++ {
		a := k % 2
		w := ws[a]
		if k > 0 {
			for _, n := range pool[1-a][((k-1)/2)%batches] {
				if err := w.Unlink(dir + "/" + n); err != nil {
					t.Fatalf("turn %d: %v", k, err)
				}
			}
		}
		for _, n := range pool[a][(k/2)%batches] {
			if err := w.Create(dir + "/" + n); err != nil {
				t.Fatalf("turn %d: %v", k, err)
			}
		}
		d, err := w.resolve(dir)
		if err != nil {
			t.Fatal(err)
		}
		chain := slices.Concat(fss[a].dirLogPages(d.dir.Load())...)
		dirty := map[uint64]bool{}
		for _, p := range chain {
			if dev.Dirty(p) {
				dirty[p] = true
			}
		}
		recs := vs.Dentries.Load()
		if err := fss[a].ReleaseAll(); err != nil {
			t.Fatalf("turn %d: %v", k, err)
		}
		recs = vs.Dentries.Load() - recs

		var want int64
		var read, staticRead []uint64
		for _, p := range chain {
			if dirty[p] || lastDirty[p] {
				want += pageSlots(dev, p)
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
		vs := fs.ctrl.VerifierStats()
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
