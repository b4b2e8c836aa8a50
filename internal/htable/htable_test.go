package htable

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"arckfs/internal/race"
	"arckfs/internal/rcu"
)

func TestInsertLookupDelete(t *testing.T) {
	tbl := New(Options{})
	if !tbl.Insert("a", 1, 100) {
		t.Fatal("insert failed")
	}
	if tbl.Insert("a", 2, 200) {
		t.Fatal("duplicate insert succeeded")
	}
	ino, ref, ok, err := tbl.Lookup(nil, "a")
	if err != nil || !ok || ino != 1 || ref != 100 {
		t.Fatalf("Lookup = %d %d %v %v", ino, ref, ok, err)
	}
	if _, _, ok, _ := tbl.Lookup(nil, "b"); ok {
		t.Fatal("found missing key")
	}
	ino, ref, ok = tbl.Delete("a")
	if !ok || ino != 1 || ref != 100 {
		t.Fatalf("Delete = %d %d %v", ino, ref, ok)
	}
	if _, _, ok = tbl.Delete("a"); ok {
		t.Fatal("double delete succeeded")
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestGrowthKeepsEntries(t *testing.T) {
	tbl := New(Options{InitialBuckets: 8})
	const n = 500
	for i := 0; i < n; i++ {
		if !tbl.Insert(fmt.Sprintf("file%d", i), uint64(i), uint64(i*2)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if tbl.Len() != n {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for i := 0; i < n; i++ {
		ino, ref, ok, err := tbl.Lookup(nil, fmt.Sprintf("file%d", i))
		if err != nil || !ok || ino != uint64(i) || ref != uint64(i*2) {
			t.Fatalf("lookup %d after growth: %d %d %v %v", i, ino, ref, ok, err)
		}
	}
}

func TestRangeSeesAll(t *testing.T) {
	tbl := New(Options{})
	want := map[string]uint64{}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("n%d", i)
		want[name] = uint64(i)
		tbl.Insert(name, uint64(i), 0)
	}
	got := map[string]uint64{}
	tbl.Range(func(name string, ino, ref uint64) bool {
		got[name] = ino
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tbl := New(Options{})
	for i := 0; i < 10; i++ {
		tbl.Insert(fmt.Sprintf("n%d", i), uint64(i), 0)
	}
	seen := 0
	tbl.Range(func(string, uint64, uint64) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early stop saw %d", seen)
	}
}

func TestWithBucketExtendedCriticalSection(t *testing.T) {
	tbl := New(Options{})
	tbl.WithBucket("x", func(lb LockedBucket) {
		if !lb.Insert("x", 7, 70) {
			t.Fatal("insert failed")
		}
		e, ok := lb.Get("x")
		if !ok || e.Ino != 7 {
			t.Fatal("Get after Insert failed")
		}
		// Simulate the §4.4 patched flow: the PM update would happen
		// here, inside the bucket critical section.
		ino, ref, ok := lb.Delete("x")
		if !ok || ino != 7 || ref != 70 {
			t.Fatal("Delete inside critical section failed")
		}
	})
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

// TestWritersDoNotAllocate: a bucket critical section costs its caller no
// heap object — the LockedBucket travels by value — and neither do the
// single-step writers once the pool holds an entry to recycle, in the
// table ArckFS as shipped runs (freed at once) and in the one ArckFS+ runs
// (the entry retired through the domain as it is, recycled by the grace
// period); a table made for n names takes n without growing and with one
// allocation for their entries; Intern hands out the table's own string
// for a name it holds.
func TestWritersDoNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	dom := rcu.NewDomain()
	for _, arm := range []struct {
		name  string
		opts  Options
		grace func()
	}{
		{"freed at once", Options{}, func() {}},
		{"retired through RCU", Options{RCUReaders: true, Dom: dom}, dom.Synchronize},
	} {
		tbl := New(arm.opts)
		tbl.Insert("warm", 1, 1)
		tbl.Delete("warm")
		arm.grace()
		hits := 0
		if n := testing.AllocsPerRun(100, func() {
			tbl.Insert("x", 7, 70)
			tbl.WithBucket("x", func(lb LockedBucket) {
				if _, ok := lb.Get("x"); ok {
					hits++
				}
			})
			tbl.Delete("x")
			arm.grace()
		}); n != 0 || hits != 101 {
			t.Fatalf("%s: insert, locked get and delete: %v allocations a round, %d hits", arm.name, n, hits)
		}
	}

	const names = 1000
	sized := New(Options{InitialBuckets: BucketsFor(names)})
	before := sized.arr.Load()
	keys := make([]string, names)
	for i := range keys {
		keys[i] = fmt.Sprintf("n%d", i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sized.Reserve(names)
	for i, k := range keys {
		sized.Insert(k, uint64(i), 0)
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n > 2 {
		t.Fatalf("%d names into a table reserved for them: %d allocations, want the one slab", names, n)
	}
	if sized.arr.Load() != before {
		t.Fatalf("a table made for %d names grew to %d buckets taking them", names, len(sized.arr.Load().buckets))
	}
	// An unsized table pays per slab and per doubling, not per name: each
	// growth copies into one slab, and the slabs in between double.
	grown := New(Options{RCUReaders: true, Dom: dom})
	runtime.ReadMemStats(&m0)
	for i, k := range keys {
		grown.Insert(k, uint64(i), 0)
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n > 64 || grown.Len() != names {
		t.Fatalf("%d names into a growing table: %d allocations, %d held", names, n, grown.Len())
	}
	dom.Barrier()

	held, fresh := []byte("n17"), []byte("other")
	if n := testing.AllocsPerRun(100, func() { sized.Intern(held) }); n != 0 {
		t.Fatalf("Intern of a held name allocates %v objects", n)
	}
	if got := sized.Intern(fresh); got != "other" {
		t.Fatalf("Intern of a new name = %q", got)
	}
}

// TestReleaseAllocatesNothing: a freed entry is its own freelist node, so
// freeing more entries than the freelist ever held costs nothing — the
// warm-up frees 1 024, the measured run 1 024 more — whether a delete
// frees at once or a grace period reclaims what it retired.
func TestReleaseAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const batch = 1024
	dom := rcu.NewDomain()
	for _, arm := range []struct {
		name  string
		opts  Options
		grace func()
	}{
		{"freed at once", Options{}, func() {}},
		{"retired through RCU", Options{RCUReaders: true, Dom: dom}, dom.Synchronize},
	} {
		tbl := New(arm.opts)
		keys := make([]string, 2*batch)
		tbl.Reserve(len(keys))
		for i := range keys {
			keys[i] = fmt.Sprintf("n%d", i)
			tbl.Insert(keys[i], uint64(i), 0)
		}
		next := 0
		if n := testing.AllocsPerRun(1, func() {
			for _, k := range keys[next : next+batch] {
				tbl.Delete(k)
			}
			next += batch
			arm.grace()
		}); n != 0 || tbl.Len() != 0 {
			t.Fatalf("%s: deleting and reclaiming %d entries: %v allocations, %d left", arm.name, batch, n, tbl.Len())
		}
		if dom.Pending() != 0 {
			t.Fatalf("%s: %d entries not reclaimed", arm.name, dom.Pending())
		}
	}
}

// TestReuse: only an empty table can be reused; it keeps its entries, and
// its bucket array up to the cap it is given, so the next owner takes as
// many names as the last one held without allocating.
func TestReuse(t *testing.T) {
	const names = 1000 // grows the table to 256 buckets
	tbl := New(Options{})
	keys := make([]string, names)
	for i := range keys {
		keys[i] = fmt.Sprintf("n%d", i)
		tbl.Insert(keys[i], uint64(i), 0)
	}
	if tbl.Reuse(1<<20, 8) {
		t.Fatal("a table holding names was reused")
	}
	for _, k := range keys {
		tbl.Delete(k)
	}
	grown := tbl.arr.Load()
	if !tbl.Reuse(len(grown.buckets), 8) || tbl.arr.Load() != grown {
		t.Fatal("an empty table at the cap was not reused as it is")
	}
	if !race.Enabled {
		if n := testing.AllocsPerRun(1, func() {
			for i, k := range keys {
				tbl.Insert(k, uint64(i), 0)
			}
			for _, k := range keys {
				tbl.Delete(k)
			}
		}); n != 0 {
			t.Fatalf("the reused table allocates %v objects for the names it held", n)
		}
	}
	if !tbl.Reuse(len(grown.buckets)-1, 8) || len(tbl.arr.Load().buckets) != 8 {
		t.Fatalf("an array over the cap kept %d buckets, want 8", len(tbl.arr.Load().buckets))
	}
	for i, k := range keys {
		tbl.Insert(k, uint64(i), 0)
	}
	if ino, _, ok, _ := tbl.Lookup(nil, keys[7]); !ok || ino != 7 || tbl.Len() != names {
		t.Fatalf("after a reuse: lookup %d, %v; %d names", ino, ok, tbl.Len())
	}
}

// TestBug45UseAfterFree reproduces the §4.5 bug deterministically: a
// lockless reader is paused mid-traversal while a writer deletes the
// entry it is standing on and the pool hands the memory to a new
// insertion. The reader detects recycled memory — the simulated segfault.
func TestBug45UseAfterFree(t *testing.T) {
	// no RCU, instrumented build: ArckFS as shipped under the paper's
	// inserted-sleep reproduction
	tbl := New(Options{StrictUAF: true})
	tbl.Insert("victim", 1, 10)

	inTraverse := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	tbl.TraverseHook = func() {
		once.Do(func() {
			close(inTraverse)
			<-resume
		})
	}

	errc := make(chan error, 1)
	go func() {
		_, _, _, err := tbl.Lookup(nil, "victim")
		errc <- err
	}()

	<-inTraverse
	// Writer deletes the entry; the pool releases it immediately, and the
	// next insert recycles the same node.
	if _, _, ok := tbl.Delete("victim"); !ok {
		t.Fatal("delete failed")
	}
	tbl.TraverseHook = nil
	tbl.Insert("recycler", 2, 20)
	close(resume)

	if err := <-errc; !errors.Is(err, ErrUseAfterFree) {
		t.Fatalf("lockless reader returned %v, want ErrUseAfterFree", err)
	}
}

// TestBug45FixedByRCU runs the same interleaving with the §4.5 patch: the
// reader's critical section defers the free, so it observes a consistent
// (pre-delete) entry.
func TestBug45FixedByRCU(t *testing.T) {
	dom := rcu.NewDomain()
	tbl := New(Options{RCUReaders: true, Dom: dom})
	tbl.Insert("victim", 1, 10)

	inTraverse := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	tbl.TraverseHook = func() {
		once.Do(func() {
			close(inTraverse)
			<-resume
		})
	}

	rd := dom.Register()
	type res struct {
		ino uint64
		ok  bool
		err error
	}
	resc := make(chan res, 1)
	go func() {
		ino, _, ok, err := tbl.Lookup(rd, "victim")
		resc <- res{ino, ok, err}
	}()

	<-inTraverse
	if _, _, ok := tbl.Delete("victim"); !ok {
		t.Fatal("delete failed")
	}
	tbl.TraverseHook = nil
	tbl.Insert("recycler", 2, 20)
	close(resume)

	r := <-resc
	if r.err != nil {
		t.Fatalf("RCU reader faulted: %v", r.err)
	}
	// The reader raced with the delete; it may or may not have found the
	// entry, but if it did, the payload must be the victim's, untorn.
	if r.ok && r.ino != 1 {
		t.Fatalf("RCU reader saw recycled payload ino=%d", r.ino)
	}
	dom.Barrier()
}

func TestConcurrentWritersDisjointKeys(t *testing.T) {
	tbl := New(Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				name := fmt.Sprintf("g%d-%d", g, i)
				if !tbl.Insert(name, uint64(i), 0) {
					t.Errorf("insert %s failed", name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 1200 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestConcurrentRCUChurn(t *testing.T) {
	dom := rcu.NewDomain()
	tbl := New(Options{RCUReaders: true, Dom: dom})
	const keys = 64
	for i := 0; i < keys; i++ {
		tbl.Insert(fmt.Sprintf("k%d", i), uint64(i)+1, 0)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var faults atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rd := dom.Register()
			defer dom.Unregister(rd)
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Intn(keys)
				ino, _, ok, err := tbl.Lookup(rd, fmt.Sprintf("k%d", k))
				if err != nil {
					faults.Add(1)
					return
				}
				if ok && ino != uint64(k)+1 {
					faults.Add(1)
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 2000; i++ {
			k := rng.Intn(keys)
			name := fmt.Sprintf("k%d", k)
			if _, _, ok := tbl.Delete(name); ok {
				tbl.Insert(name, uint64(k)+1, 0)
			}
			if i%64 == 0 {
				dom.Synchronize()
			}
		}
		stop.Store(true)
	}()
	wg.Wait()
	dom.Barrier()
	if f := faults.Load(); f != 0 {
		t.Fatalf("%d reader faults under RCU", f)
	}
}

// Property: the table behaves like a map under any operation sequence.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := New(Options{InitialBuckets: 8})
		model := map[string]uint64{}
		for i := 0; i < 400; i++ {
			name := fmt.Sprintf("k%d", rng.Intn(60))
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				okT := tbl.Insert(name, v, 0)
				_, exists := model[name]
				if okT == exists {
					return false
				}
				if okT {
					model[name] = v
				}
			case 1:
				ino, _, okT := tbl.Delete(name)
				v, exists := model[name]
				if okT != exists || (okT && ino != v) {
					return false
				}
				delete(model, name)
			case 2:
				ino, _, okT, err := tbl.Lookup(nil, name)
				if err != nil {
					return false
				}
				v, exists := model[name]
				if okT != exists || (okT && ino != v) {
					return false
				}
			}
		}
		if tbl.Len() != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEmptyWalk prices the walks that visit every bucket of a table
// whether it holds anything or not — a Readdir's Range and a release's
// LockAll — on an empty table of each bucket count. It is what bounds the
// bucket array a reused table keeps (libfs's maxSpareBuckets).
func BenchmarkEmptyWalk(b *testing.B) {
	for _, n := range []int{16, 1024, 4096} {
		tbl := New(Options{InitialBuckets: n})
		b.Run(fmt.Sprintf("Range/%d", n), func(b *testing.B) {
			for range b.N {
				tbl.Range(func(string, uint64, uint64) bool { return true })
			}
		})
		b.Run(fmt.Sprintf("LockAll/%d", n), func(b *testing.B) {
			for range b.N {
				tbl.LockAll()()
			}
		})
	}
}
