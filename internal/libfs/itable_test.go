package libfs

import (
	"sync"
	"sync/atomic"
	"testing"

	"arckfs/internal/race"
)

// tableMinode is a minode whose parent field says whose it is:
// checkTableMinode rejects one that is not ino's, or whose fields are not
// all set.
func tableMinode(ino uint64) *minode {
	mi := &minode{ino: ino}
	mi.parent.Store(ino * 7)
	return mi
}

func checkTableMinode(t *testing.T, ino uint64, mi *minode) bool {
	t.Helper()
	if mi != nil && (mi.ino != ino || mi.parent.Load() != ino*7) {
		t.Errorf("Load(%d) = minode of inode %d with parent %d", ino, mi.ino, mi.parent.Load())
		return false
	}
	return true
}

// TestInodeTableConcurrent checks the inode table on its own: racing
// LoadOrStores agree, a LoadAndDelete racing lock-free Loads hands no
// reader a minode that is not the slot's, Range walks in inode order and
// misses nothing that stays, the numbers at the leaf edges and the last one
// work, and an empty table has allocated nothing. Run under -race at
// GOMAXPROCS 1, 2 and 4.
func TestInodeTableConcurrent(t *testing.T) {
	// Not a multiple of the leaf size: the last leaf is partly past the cap.
	const capacity = 4*inodeLeafSlots + 100

	t.Run("empty allocates nothing", func(t *testing.T) {
		it := &inodeTable{cap: capacity}
		allocs := testing.AllocsPerRun(10, func() {
			it.Load(1)
			it.Load(capacity - 1)
			it.LoadAndDelete(300)
			it.Delete(2)
			it.Range(func(*minode) bool { return true })
		})
		if (allocs != 0 && !race.Enabled) || it.top.Load() != nil {
			t.Fatalf("an empty table allocated %v objects a round, top %p", allocs, it.top.Load())
		}
	})

	t.Run("edges", func(t *testing.T) {
		it := &inodeTable{cap: capacity}
		inos := []uint64{1, 255, 256, 257, capacity - 1}
		for _, ino := range inos {
			it.Store(ino, tableMinode(ino))
		}
		for _, ino := range inos {
			if mi := it.Load(ino); mi == nil || !checkTableMinode(t, ino, mi) {
				t.Fatalf("Load(%d) = %v after Store", ino, mi)
			}
		}
		for _, ino := range []uint64{2, 254, 258, capacity - 2, capacity, capacity + 1000} {
			if mi := it.Load(ino); mi != nil {
				t.Fatalf("Load(%d) = minode %d, never stored", ino, mi.ino)
			}
		}
		var seen []uint64
		it.Range(func(mi *minode) bool { seen = append(seen, mi.ino); return true })
		if len(seen) != len(inos) {
			t.Fatalf("Range saw %v, want %v", seen, inos)
		}
		for i := range seen {
			if seen[i] != inos[i] {
				t.Fatalf("Range saw %v, want %v", seen, inos)
			}
		}
		for _, ino := range inos {
			if mi := it.LoadAndDelete(ino); mi == nil || mi.ino != ino {
				t.Fatalf("LoadAndDelete(%d) = %v", ino, mi)
			}
			if mi := it.Load(ino); mi != nil {
				t.Fatalf("Load(%d) after LoadAndDelete = minode %d", ino, mi.ino)
			}
		}
	})

	t.Run("LoadOrStore agrees", func(t *testing.T) {
		it := &inodeTable{cap: capacity}
		for ino := uint64(1); ino < capacity; ino += 3 {
			var got [2]*minode
			var start, done sync.WaitGroup
			start.Add(1)
			for g := range got {
				done.Add(1)
				go func() {
					defer done.Done()
					start.Wait()
					got[g] = it.LoadOrStore(ino, tableMinode(ino))
				}()
			}
			start.Done()
			done.Wait()
			if got[0] != got[1] || got[0] != it.Load(ino) {
				t.Fatalf("inode %d: LoadOrStore returned %p and %p, the table holds %p", ino, got[0], got[1], it.Load(ino))
			}
		}
	})

	t.Run("LoadAndDelete beside Loads", func(t *testing.T) {
		it := &inodeTable{cap: capacity}
		const rounds = 2000
		inos := []uint64{3, 255, 256, 700, capacity - 1}
		var stop atomic.Bool
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for !stop.Load() {
					for _, ino := range inos {
						if !checkTableMinode(t, ino, it.Load(ino)) {
							return
						}
					}
				}
			}()
		}
		var writers sync.WaitGroup
		for _, ino := range inos {
			writers.Add(1)
			go func() {
				defer writers.Done()
				for i := 0; i < rounds; i++ {
					mi := tableMinode(ino)
					it.Store(ino, mi)
					if got := it.LoadAndDelete(ino); got != mi {
						t.Errorf("inode %d: LoadAndDelete = %p, want the %p stored", ino, got, mi)
						return
					}
				}
			}()
		}
		writers.Wait()
		stop.Store(true)
		readers.Wait()
	})

	t.Run("Range in order beside churn", func(t *testing.T) {
		it := &inodeTable{cap: capacity}
		// Even numbers stay throughout; odd ones come and go.
		for ino := uint64(2); ino < capacity; ino += 2 {
			it.Store(ino, tableMinode(ino))
		}
		var stop atomic.Bool
		var churn sync.WaitGroup
		churn.Add(1)
		go func() {
			defer churn.Done()
			for !stop.Load() {
				for ino := uint64(1); ino < capacity; ino += 2 {
					it.LoadOrStore(ino, tableMinode(ino))
				}
				for ino := uint64(1); ino < capacity; ino += 2 {
					it.Delete(ino)
				}
			}
		}()
		for round := 0; round < 50; round++ {
			var last uint64
			stayed := 0
			it.Range(func(mi *minode) bool {
				if mi.ino <= last {
					t.Errorf("Range yielded %d after %d", mi.ino, last)
					return false
				}
				last = mi.ino
				if mi.ino%2 == 0 {
					stayed++
				}
				return true
			})
			if want := (capacity - 1) / 2; stayed != want {
				t.Errorf("round %d: Range saw %d of the %d inodes present throughout", round, stayed, want)
			}
		}
		stop.Store(true)
		churn.Wait()
	})
}
