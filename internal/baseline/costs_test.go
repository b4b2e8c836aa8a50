package baseline_test

import (
	"fmt"
	"testing"

	"arckfs/internal/baseline"
	"arckfs/internal/fsapi"
)

// opCost is what one operation charges the device and the syscall gate.
type opCost struct{ stores, bytes, flushes, fences, syscalls int64 }

// costOps are the measured operations. Each runs on a fresh instance
// after the same setup: /a holds f0..f7, /b is empty, and every file is
// 8 KiB (two blocks), so no measured op allocates a log or dentry page.
var costOps = []struct {
	name string
	run  func(w fsapi.Thread, fd fsapi.FD, page []byte) error
}{
	{"create", func(w fsapi.Thread, _ fsapi.FD, _ []byte) error { return w.Create("/a/new") }},
	{"unlink", func(w fsapi.Thread, _ fsapi.FD, _ []byte) error { return w.Unlink("/a/f1") }},
	{"rename-same-dir", func(w fsapi.Thread, _ fsapi.FD, _ []byte) error { return w.Rename("/a/f1", "/a/g1") }},
	{"rename-cross-dir", func(w fsapi.Thread, _ fsapi.FD, _ []byte) error { return w.Rename("/a/f1", "/b/f1") }},
	{"append-4k", func(w fsapi.Thread, fd fsapi.FD, page []byte) error {
		_, err := w.WriteAt(fd, page, 8192)
		return err
	}},
	{"overwrite-4k", func(w fsapi.Thread, fd fsapi.FD, page []byte) error {
		_, err := w.WriteAt(fd, page, 0)
		return err
	}},
	{"shrink-4k", func(w fsapi.Thread, _ fsapi.FD, _ []byte) error { return w.Truncate("/a/f0", 4096) }},
	{"open-read-close", func(w fsapi.Thread, _ fsapi.FD, page []byte) error {
		fd, err := w.Open("/a/f1")
		if err != nil {
			return err
		}
		if _, err := w.ReadAt(fd, page, 0); err != nil {
			return err
		}
		return w.Close(fd)
	}},
	{"stat", func(w fsapi.Thread, _ fsapi.FD, _ []byte) error {
		_, err := w.Stat("/a/f1")
		return err
	}},
	{"readdir", func(w fsapi.Thread, _ fsapi.FD, _ []byte) error {
		_, err := w.Readdir("/a")
		return err
	}},
}

// archetypeCosts is each archetype's persist schedule and crossing count
// per operation, in costOps order. It is the archetypes' modeled cost:
// a refactor of internal/baseline must not move a single cell.
var archetypeCosts = map[string][]opCost{
	"nova": {
		{17, 4178, 2, 2, 1}, // create: a fresh log page for the child + two log entries
		{8, 40, 1, 1, 1},
		{16, 80, 2, 2, 1},
		{16, 80, 2, 2, 1},
		{8, 4134, 65, 2, 1}, // COW: full-page flush + write entry
		{8, 4134, 65, 2, 1},
		{7, 38, 1, 1, 1},
		{0, 0, 0, 0, 2},
		{0, 0, 0, 0, 1},
		{0, 0, 0, 0, 1},
	},
	"pmfs": {
		{7, 51, 4, 3, 1}, // two undo records, the dentry, the commit record
		{5, 40, 3, 2, 1},
		{9, 66, 5, 3, 1},
		{9, 66, 5, 3, 1},
		{5, 8216, 66, 3, 1}, // zeroed new block + data in place + journaled size
		{1, 4096, 64, 1, 1},
		{3, 24, 2, 2, 1},
		{0, 0, 0, 0, 2},
		{0, 0, 0, 0, 1},
		{0, 0, 0, 0, 1},
	},
	"kucofs": {
		{1, 8, 1, 1, 1}, // one trusted-thread message and its log record
		{1, 8, 1, 1, 1},
		{1, 8, 1, 1, 1},
		{1, 8, 1, 1, 1},
		{2, 8192, 64, 1, 1}, // the crossing is the block grant
		{1, 4096, 64, 1, 0},
		{1, 8, 1, 1, 1},
		{0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
	},
}

// TestArchetypeCosts pins the steady-state per-op store/flush/fence and
// syscall counts of every archetype.
func TestArchetypeCosts(t *testing.T) {
	for _, name := range baseline.Names() {
		for i, op := range costOps {
			t.Run(name+"/"+op.name, func(t *testing.T) {
				fs := mustNew(t, name, 32<<20, nil)
				w := fs.NewThread(0)
				page := make([]byte, 4096)
				for _, d := range []string{"/a", "/b"} {
					if err := w.Mkdir(d); err != nil {
						t.Fatal(err)
					}
				}
				for f := 0; f < 8; f++ {
					p := fmt.Sprintf("/a/f%d", f)
					if err := w.Create(p); err != nil {
						t.Fatal(err)
					}
					fd, err := w.Open(p)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := w.WriteAt(fd, make([]byte, 8192), 0); err != nil {
						t.Fatal(err)
					}
					w.Close(fd)
				}
				fd, err := w.Open("/a/f0")
				if err != nil {
					t.Fatal(err)
				}
				before := fs.Telemetry().Snapshot()
				if err := op.run(w, fd, page); err != nil {
					t.Fatal(err)
				}
				after := fs.Telemetry().Snapshot()
				d := func(k string) int64 { return after[k] - before[k] }
				got := opCost{d("pmem.stores"), d("pmem.bytes"), d("pmem.flushes"), d("pmem.fences"), d("syscalls")}
				want := archetypeCosts[name]
				if got != want[i] {
					t.Fatalf("cost {stores bytes flushes fences syscalls} = %+v, want %+v", got, want[i])
				}
			})
		}
	}
}
