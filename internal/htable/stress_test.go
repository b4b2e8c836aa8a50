package htable

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arckfs/internal/rcu"
)

// TestRCULookupVsWritersSameBucket churns rename-shaped delete+insert
// pairs through a deliberately tiny table (two initial buckets) so every
// writer collides with every reader's chain, while lock-free lookups
// verify a disjoint set of stable keys end-to-end. Run under -race this
// is the data-plane publication-order check: a reader must never observe
// a torn entry or a stale payload for a key that is never written.
func TestRCULookupVsWritersSameBucket(t *testing.T) {
	dom := rcu.NewDomain()
	tbl := New(Options{RCUReaders: true, Dom: dom, InitialBuckets: 2})
	const stable = 16
	for i := 0; i < stable; i++ {
		tbl.Insert(fmt.Sprintf("stable%d", i), uint64(i)+100, 0)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var faults atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rd := dom.Register()
			defer dom.Unregister(rd)
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Intn(stable)
				ino, _, ok, err := tbl.Lookup(rd, fmt.Sprintf("stable%d", k))
				if err != nil || !ok || ino != uint64(k)+100 {
					faults.Add(1)
					return
				}
			}
		}(int64(r)*31 + 7)
	}
	// Writers churn create/rename/unlink over their own key space, all of
	// it hashing into the same two buckets the readers traverse.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				a := fmt.Sprintf("w%d-a%d", w, i%64)
				b := fmt.Sprintf("w%d-b%d", w, i%64)
				tbl.Insert(a, uint64(i)+1, 0)
				if ino, ref, ok := tbl.Delete(a); ok { // rename: unlink + relink
					tbl.Insert(b, ino, ref)
				}
				tbl.Delete(b)
			}
			stop.Store(true)
		}(w)
	}
	wg.Wait()
	dom.Barrier()
	if f := faults.Load(); f != 0 {
		t.Fatalf("%d lock-free reader faults", f)
	}
	if tbl.Len() != stable {
		t.Fatalf("Len = %d, want %d", tbl.Len(), stable)
	}
}

// TestLookupDuringGrowthFindsStableNames: a lock-free Lookup that loaded
// the bucket array just before a growth published its successor walks the
// old chains, which growth leaves intact, so it finds every name that was
// never removed. 2 048 inserts grow a 2-bucket table ten times while a
// reader looks up 4 stable names; a miss is a spurious ENOENT.
func TestLookupDuringGrowthFindsStableNames(t *testing.T) {
	stable := []string{"s0", "s1", "s2", "s3"}
	for round := 0; round < 40; round++ {
		dom := rcu.NewDomain()
		tbl := New(Options{RCUReaders: true, Dom: dom, InitialBuckets: 2})
		for i, name := range stable {
			tbl.Insert(name, uint64(i)+1, 0)
		}
		var stop atomic.Bool
		var misses atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			rd := dom.Register()
			defer dom.Unregister(rd)
			for i := 0; !stop.Load(); i++ {
				k := i % len(stable)
				if ino, _, ok, err := tbl.Lookup(rd, stable[k]); err != nil || !ok || ino != uint64(k)+1 {
					misses.Add(1)
				}
			}
		}()
		for i := 0; i < 2048; i++ {
			tbl.Insert(fmt.Sprintf("n%d", i), uint64(i)+100, 0)
		}
		stop.Store(true)
		<-done
		dom.Barrier()
		if m := misses.Load(); m != 0 {
			t.Fatalf("round %d: %d lookups of a stable name missed while the table grew", round, m)
		}
	}
}

// TestRCUGracePeriodBlocksOnPinnedReader pins the reclamation contract
// directly: a retired entry stays queued while any reader that could
// hold it is pinned, the grace period completes only after the unpin,
// and the queue drains to zero afterwards.
func TestRCUGracePeriodBlocksOnPinnedReader(t *testing.T) {
	dom := rcu.NewDomain()
	tbl := New(Options{RCUReaders: true, Dom: dom})
	tbl.Insert("victim", 1, 0)

	pinned := make(chan struct{})
	unpin := make(chan struct{})
	reader := make(chan struct{})
	go func() {
		// The Reader is not goroutine-safe: pin and unpin both happen on
		// this goroutine, the test signals through channels.
		rd := dom.Register()
		defer dom.Unregister(rd)
		rd.ReadLock()
		close(pinned)
		<-unpin
		rd.ReadUnlock()
		close(reader)
	}()
	<-pinned

	if _, _, ok := tbl.Delete("victim"); !ok {
		t.Fatal("delete failed")
	}
	if n := dom.Pending(); n != 1 {
		t.Fatalf("Pending = %d after retire, want 1", n)
	}

	syncDone := make(chan struct{})
	go func() {
		dom.Synchronize()
		close(syncDone)
	}()
	select {
	case <-syncDone:
		t.Fatal("grace period completed while a reader was pinned")
	case <-time.After(20 * time.Millisecond):
	}

	close(unpin)
	<-reader
	select {
	case <-syncDone:
	case <-time.After(5 * time.Second):
		t.Fatal("grace period did not complete after the reader unpinned")
	}
	if n := dom.Pending(); n != 0 {
		t.Fatalf("Pending = %d after grace period, want 0", n)
	}
}

// TestSetRefVsLockFreeLookups rewrites every entry's payload in place
// under LockAll — what log compaction does when it relocates dentry
// records — while lock-free lookups load the same words. Under -race the
// load must not be a data race, and a reader must only ever see a value
// some writer round stored for that key.
func TestSetRefVsLockFreeLookups(t *testing.T) {
	dom := rcu.NewDomain()
	tbl := New(Options{RCUReaders: true, Dom: dom, InitialBuckets: 4})
	const keys, rounds = 32, 200
	for i := 0; i < keys; i++ {
		tbl.Insert(fmt.Sprintf("k%d", i), uint64(i), uint64(i))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rd := dom.Register()
			defer dom.Unregister(rd)
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Intn(keys)
				ino, ref, ok, err := tbl.Lookup(rd, fmt.Sprintf("k%d", k))
				if err != nil || !ok || ino != uint64(k) || ref%keys != uint64(k) {
					t.Errorf("lookup k%d = ino %d ref %d ok %v err %v", k, ino, ref, ok, err)
					return
				}
			}
		}(int64(r) + 1)
	}
	for round := 1; round <= rounds; round++ {
		unlock := tbl.LockAll()
		tbl.EachLocked(func(e *Entry) { e.SetRef(e.Ino + uint64(round*keys)) })
		unlock()
	}
	stop.Store(true)
	wg.Wait()
	seen := 0
	tbl.EachLocked(func(e *Entry) {
		seen++
		if e.Ref() != e.Ino+rounds*keys || e.Name() != fmt.Sprintf("k%d", e.Ino) {
			t.Errorf("entry %q: ino %d ref %d after %d rounds", e.Name(), e.Ino, e.Ref(), rounds)
		}
	})
	if seen != keys {
		t.Fatalf("EachLocked visited %d entries, want %d", seen, keys)
	}
}
