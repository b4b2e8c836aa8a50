// Stress tests for the sharded kernel control plane, written from
// outside the package (package kernel_test) so they can drive the
// Controller through real LibFS instances: many applications hammering
// Acquire/Commit/Release/grant paths across shards concurrently, plus a
// pin that parallel recovery produces state identical to a serial scan.
package kernel_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"arckfs/internal/core"
	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
)

// TestShardStressDisjointGrants spins many applications grabbing inode
// and page grants concurrently and asserts no value is ever handed out
// twice — the invariant the striped grant paths must preserve without
// the old global lock.
func TestShardStressDisjointGrants(t *testing.T) {
	sys, err := core.NewSystem(core.Config{DevSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const apps, rounds, batch = 8, 40, 16
	inos := make([][]uint64, apps)
	pages := make([][]uint64, apps)
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		id := sys.Ctrl.RegisterApp(0, 0)
		wg.Add(1)
		go func(a int, id kernel.AppID) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				in, err := sys.Ctrl.GrantInodes(id, batch)
				if err != nil {
					t.Errorf("app %d GrantInodes: %v", a, err)
					return
				}
				inos[a] = append(inos[a], in...)
				pg, err := sys.Ctrl.GrantPages(id, a, batch)
				if err != nil {
					t.Errorf("app %d GrantPages: %v", a, err)
					return
				}
				pages[a] = append(pages[a], pg...)
			}
		}(a, id)
	}
	wg.Wait()
	for name, got := range map[string][][]uint64{"inode": inos, "page": pages} {
		seen := map[uint64]int{}
		for a, vals := range got {
			for _, v := range vals {
				if prev, dup := seen[v]; dup {
					t.Fatalf("%s %d granted to both app %d and app %d", name, v, prev, a)
				}
				seen[v] = a
			}
		}
		if len(seen) != apps*rounds*batch {
			t.Fatalf("%s grants: got %d unique values, want %d", name, len(seen), apps*rounds*batch)
		}
	}
}

// TestShardStressMultiApp runs several applications concurrently through
// the full ownership protocol — create, write, commit, leased release,
// lease-hit re-acquire, rename — in private subtrees, while extra
// kernel-level applications fight over one shared file (tolerating
// ErrBusy). Afterwards everything is released and the image must fsck
// clean: the final persistent state is verifier-consistent no matter how
// the shard fast paths interleaved. CI runs this under -race.
func TestShardStressMultiApp(t *testing.T) {
	sys, err := core.NewSystem(core.Config{DevSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const nApps = 6
	iters := 40
	if testing.Short() {
		iters = 10
	}

	// Sequential setup: each app builds and releases its subtree so the
	// next one can walk the root.
	apps := make([]*libfs.FS, nApps)
	for i := range apps {
		apps[i] = sys.NewApp(0, 0)
		th := apps[i].NewThread(i)
		if err := th.Mkdir(fmt.Sprintf("/app%d", i)); err != nil {
			t.Fatalf("mkdir app%d: %v", i, err)
		}
		if i == 0 {
			if err := th.Create("/shared"); err != nil {
				t.Fatal(err)
			}
		}
		if err := apps[i].ReleaseAll(); err != nil {
			t.Fatalf("setup release app%d: %v", i, err)
		}
	}
	shared, err := apps[0].NewThread(0).(*libfs.Thread).Stat("/shared")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < nApps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs := apps[i]
			th := fs.NewThread(i).(*libfs.Thread)
			dir := fmt.Sprintf("/app%d", i)
			blob := make([]byte, 4096)
			fail := func(op string, err error) bool {
				if err != nil {
					t.Errorf("app %d %s: %v", i, op, err)
					return true
				}
				return false
			}
			for it := 0; it < iters; it++ {
				name := fmt.Sprintf("%s/f%d", dir, it%8)
				if err := th.Create(name); err != nil && !errors.Is(err, fsapi.ErrExist) {
					fail("create", err)
					return
				}
				fd, err := th.Open(name)
				if fail("open", err) {
					return
				}
				if _, err := th.WriteAt(fd, blob, 0); fail("write", err) {
					return
				}
				th.Close(fd)
				// Commit (fresh ancestors included) so the release below
				// is Rule-1 legal even on the file's first round.
				if err := fs.CommitInode(th, name); fail("commit", err) {
					return
				}
				st, err := th.Stat(name)
				if fail("stat", err) {
					return
				}
				if err := fs.ReleaseInode(st.Ino); fail("release", err) {
					return
				}
				// Reopen and overwrite: with leases this re-acquire is the
				// dormant-mapping CAS; either way it must succeed.
				fd, err = th.Open(name)
				if fail("reopen", err) {
					return
				}
				if _, err := th.WriteAt(fd, blob, 0); fail("rewrite", err) {
					return
				}
				th.Close(fd)
				if it%4 == 3 {
					tmp := fmt.Sprintf("%s/g%d", dir, it%8)
					if err := th.Rename(name, tmp); fail("rename", err) {
						return
					}
					if err := th.Rename(tmp, name); fail("rename back", err) {
						return
					}
				}
			}
		}(i)
	}
	// Kernel-level contenders on the shared file: raw Acquire/Release
	// ping-pong across apps, racing the LibFS traffic on other shards.
	const contenders = 4
	for c := 0; c < contenders; c++ {
		id := sys.Ctrl.RegisterApp(0, 0)
		wg.Add(1)
		go func(c int, id kernel.AppID) {
			defer wg.Done()
			for it := 0; it < iters*2; it++ {
				_, err := sys.Ctrl.Acquire(id, shared.Ino, true)
				if errors.Is(err, fsapi.ErrBusy) {
					continue // a peer holds it; expected under contention
				}
				if err != nil {
					t.Errorf("contender %d acquire: %v", c, err)
					return
				}
				if err := sys.Ctrl.Release(id, shared.Ino); err != nil {
					t.Errorf("contender %d release: %v", c, err)
					return
				}
			}
		}(c, id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i, fs := range apps {
		if err := fs.ReleaseAll(); err != nil {
			t.Fatalf("final release app%d: %v", i, err)
		}
	}
	img := make([]byte, sys.Dev.Size())
	sys.Dev.Read(0, img)
	rep, err := kernel.Fsck(pmem.Restore(img, nil), kernel.Options{})
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("final image not verifier-consistent: %v", rep)
	}
}

// TestRecoveryParallelMatchesSerial pins the parallel-recovery
// determinism contract: mounting the same image with a single worker and
// with eight workers must produce identical reports, identical shadow
// tables, and identical free-page pools — on a clean image and on a
// crash image that needs real repair (uncommitted creations to drop,
// leaked pages to reclaim).
func TestRecoveryParallelMatchesSerial(t *testing.T) {
	sys, err := core.NewSystem(core.Config{DevSize: 64 << 20, InodeCap: 1 << 10, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := sys.NewApp(0, 0)
	th := fs.NewThread(0).(*libfs.Thread)
	blob := make([]byte, 8192)
	for d := 0; d < 4; d++ {
		dir := fmt.Sprintf("/d%d/sub", d)
		for _, p := range []string{fmt.Sprintf("/d%d", d), dir} {
			if err := th.Mkdir(p); err != nil {
				t.Fatal(err)
			}
		}
		for f := 0; f < 6; f++ {
			p := fmt.Sprintf("%s/f%d", dir, f)
			if err := th.Create(p); err != nil {
				t.Fatal(err)
			}
			fd, err := th.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := th.WriteAt(fd, blob, 0); err != nil {
				t.Fatal(err)
			}
			th.Close(fd)
		}
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	clean := make([]byte, sys.Dev.Size())
	sys.Dev.Read(0, clean)

	// Dirty the tree without committing: these creations and writes are
	// unknown to the kernel, so recovery has dangling entries to drop and
	// pages to sweep back.
	for f := 0; f < 8; f++ {
		p := fmt.Sprintf("/d0/sub/lost%d", f)
		if err := th.Create(p); err != nil {
			t.Fatal(err)
		}
		fd, err := th.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := th.WriteAt(fd, blob, 0); err != nil {
			t.Fatal(err)
		}
		th.Close(fd)
	}
	crash := sys.Dev.CrashImage(pmem.CrashPersistAll)

	for name, img := range map[string][]byte{"clean": clean, "crash": crash} {
		mount := func(workers int) (*kernel.Controller, *kernel.Report) {
			dev := pmem.Restore(append([]byte(nil), img...), nil)
			c, rep, err := kernel.Mount(dev, kernel.Options{RecoverWorkers: workers}, true)
			if err != nil {
				t.Fatalf("%s mount workers=%d: %v", name, workers, err)
			}
			return c, rep
		}
		c1, r1 := mount(1)
		c8, r8 := mount(8)
		if *r1 != *r8 {
			t.Fatalf("%s: serial report %v != parallel report %v", name, r1, r8)
		}
		if f1, f8 := c1.FreeCount(), c8.FreeCount(); f1 != f8 {
			t.Fatalf("%s: free pool diverged: serial %d, parallel %d", name, f1, f8)
		}
		for ino := uint64(0); ino < 1<<10; ino++ {
			s1, ok1 := c1.ShadowOf(ino)
			s8, ok8 := c8.ShadowOf(ino)
			if ok1 != ok8 || !reflect.DeepEqual(s1, s8) {
				t.Fatalf("%s: shadow of inode %d diverged: serial (%v,%v) parallel (%v,%v)",
					name, ino, s1, ok1, s8, ok8)
			}
		}
	}
}

// TestACLDiesWithItsInode: a permission override belongs to the inode it
// was set on, not to the inode number. The file is unlinked and the number
// — granted one at a time, so it comes straight back — is reused for a new
// file; the override on the dead file must not decide who may open the new
// one.
func TestACLDiesWithItsInode(t *testing.T) {
	sys, err := core.NewSystem(core.Config{DevSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fs := libfs.New(sys.Ctrl, sys.Ctrl.RegisterApp(0, 0), libfs.Options{GrantInoBatch: 1})
	th := fs.NewThread(0)
	peer := sys.Ctrl.RegisterApp(0, 0)
	create := func() uint64 {
		t.Helper()
		if err := th.Create("/f"); err != nil {
			t.Fatal(err)
		}
		if err := fs.ReleaseAll(); err != nil {
			t.Fatal(err)
		}
		st, err := th.Stat("/f")
		if err != nil {
			t.Fatal(err)
		}
		return st.Ino
	}

	old := create()
	sys.Ctrl.SetACL(old, peer, layout.PermRead)
	if _, err := sys.Ctrl.Acquire(peer, old, true); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("write acquire under a read-only override = %v, want ErrPerm", err)
	}
	if err := th.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if fresh := create(); fresh != old {
		t.Fatalf("new file got inode %d, want the recycled %d (the test would prove nothing)", fresh, old)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Ctrl.Acquire(peer, old, true); err != nil {
		t.Fatalf("the dead file's override outlived it: write acquire of the new inode %d = %v", old, err)
	}
}
