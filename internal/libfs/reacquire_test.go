package libfs

import (
	"fmt"
	"runtime"
	"testing"

	"arckfs/internal/kernel"
	"arckfs/internal/pmem"
	"arckfs/internal/race"
)

// reacquireBench is a directory of n names an owner shares with a peer.
// steal has the owner release and the peer create and unlink a name in the
// directory and release, which reclaims the owner's dormant lease;
// reacquire is then the owner's lease miss: one Acquire crossing and a
// rebuild of the directory's table from the log, beside the table the
// owner retained.
type reacquireBench struct {
	tb  testing.TB
	fss [2]*FS
	ws  [2]*Thread
	dir *minode
}

func newReacquireBench(tb testing.TB, n int) *reacquireBench {
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12})
	if err != nil {
		tb.Fatal(err)
	}
	b := &reacquireBench{tb: tb}
	for a := range b.fss {
		b.fss[a] = New(ctrl, ctrl.RegisterApp(0, 0), Options{})
		b.ws[a] = b.fss[a].NewThread(a).(*Thread)
	}
	if err := b.ws[0].Mkdir("/d"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.ws[0].Create(fmt.Sprintf("/d/file-%04d-%x", i, i*2654435761)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := b.fss[0].ReleaseAll(); err != nil {
		tb.Fatal(err)
	}
	ino, _, ok, err := b.fss[0].lookupInDir(b.ws[0], b.minode(0, 1), "d")
	if err != nil || !ok {
		tb.Fatalf("lookup of /d: %v %v", ok, err)
	}
	b.dir = b.minode(0, ino)
	return b
}

func (b *reacquireBench) minode(app int, ino uint64) *minode {
	mi := b.fss[app].inodes.Load(ino)
	if mi == nil {
		b.tb.Fatalf("app %d has no minode for inode %d", app, ino)
	}
	return mi
}

func (b *reacquireBench) steal() {
	if err := b.fss[0].ReleaseAll(); err != nil {
		b.tb.Fatal(err)
	}
	if err := b.ws[1].Create("/d/peer"); err != nil {
		b.tb.Fatal(err)
	}
	if err := b.ws[1].Unlink("/d/peer"); err != nil {
		b.tb.Fatal(err)
	}
	if err := b.fss[1].ReleaseAll(); err != nil {
		b.tb.Fatal(err)
	}
}

func (b *reacquireBench) reacquire(want int) {
	misses := b.fss[0].Stats.LeaseMisses.Load()
	if err := b.fss[0].reacquire(b.ws[0], b.dir); err != nil {
		b.tb.Fatal(err)
	}
	if got := b.dir.dir.peek().ht.Len(); got != want || b.fss[0].Stats.LeaseMisses.Load() != misses+1 {
		b.tb.Fatalf("rebuilt table holds %d names after %d lease misses, want %d after one", got, b.fss[0].Stats.LeaseMisses.Load()-misses, want)
	}
}

// TestReacquireRebuildAllocatesPerEntry: the rebuild after a lease miss
// fills the state the previous rebuild retired, back from its grace period
// with its chain nodes and bucket array, and reuses the retained table's
// name strings. What is left is about 5 objects for the directory, one
// more under the race detector, where a table built afresh cost 11, a node
// a name one each and growing from the default size through four
// doublings about five.
func TestReacquireRebuildAllocatesPerEntry(t *testing.T) {
	const names, rounds = 256, 8
	limit := 6.0
	if race.Enabled {
		limit++
	}
	b := newReacquireBench(t, names)
	var ms runtime.MemStats
	total := uint64(0)
	for i := 0; i < rounds; i++ {
		b.steal()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.reacquire(names)
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	perRebuild := float64(total) / rounds
	t.Logf("%.2f allocations per reacquire of a %d-name directory", perRebuild, names)
	if perRebuild > limit {
		t.Fatalf("%.0f allocations per reacquire of a %d-name directory, want at most %.0f", perRebuild, names, limit)
	}
}

// BenchmarkReacquireDir256 times the owner's side of taking a 256-name
// directory back after a peer held it; the peer's turn runs off the clock.
func BenchmarkReacquireDir256(b *testing.B) {
	rb := newReacquireBench(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rb.steal()
		b.StartTimer()
		rb.reacquire(256)
	}
}
