// Package lockorder exercises the declared hlock partial order. The
// structs mirror the real libfs shapes: the checker keys lock classes on
// (struct type name, field name), so these local declarations land in
// the same classes as the real ones.
package lockorder

import (
	"fixture/internal/hlock"
	"fixture/internal/htable"
)

type minode struct{ lock hlock.RWSpin }

type tailCursor struct{ mu hlock.SpinLock }

type dirState struct{ idxMu hlock.SpinLock }

type FS struct {
	inoMu  hlock.SpinLock
	pageMu [8]hlock.SpinLock
}

// inOrder nests strictly outermost-first: clean.
func inOrder(mi *minode, tc *tailCursor, ds *dirState, fs *FS) {
	mi.lock.Lock()
	tc.mu.Lock()
	ds.idxMu.Lock()
	fs.inoMu.Lock()
	fs.inoMu.Unlock()
	ds.idxMu.Unlock()
	tc.mu.Unlock()
	mi.lock.Unlock()
}

// inverted takes the minode lock under the tail lock: the classic
// two-thread deadlock against any inOrder caller.
func inverted(mi *minode, tc *tailCursor) {
	tc.mu.Lock()
	mi.lock.RLock() // want "while holding|lock-order cycle among classes"
	mi.lock.RUnlock()
	tc.mu.Unlock()
}

// doubleAcquire takes two page locks with no order between the indices:
// two threads doing this with swapped indices deadlock.
func doubleAcquire(fs *FS, a, b int) {
	fs.pageMu[a].Lock()
	fs.pageMu[b].Lock() // want "same class"
	fs.pageMu[b].Unlock()
	fs.pageMu[a].Unlock()
}

// reacquire after a release is fine.
func reacquire(tc *tailCursor) {
	tc.mu.Lock()
	tc.mu.Unlock()
	tc.mu.Lock()
	tc.mu.Unlock()
}

// tryIgnored: Try-acquisitions back off instead of spinning, so they
// cannot deadlock and are exempt from the order.
func tryIgnored(mi *minode, tc *tailCursor) {
	tc.mu.Lock()
	if mi.lock.TryLock() {
		mi.lock.Unlock()
	}
	tc.mu.Unlock()
}

// bucketNest: the WithBucket callback runs with the bucket lock held;
// taking the tail lock inside it follows the order.
func bucketNest(ht *htable.Table, tc *tailCursor) {
	ht.WithBucket("k", func(b htable.LockedBucket) {
		tc.mu.Lock()
		tc.mu.Unlock()
	})
}

// bucketInverted enters a bucket while already holding the tail lock.
func bucketInverted(ht *htable.Table, tc *tailCursor) {
	tc.mu.Lock()
	ht.WithBucket("k", func(b htable.LockedBucket) {}) // want "while holding"
	tc.mu.Unlock()
}

// lockAllUpgrade: LockAll then a deeper class is in order.
func lockAllUpgrade(ht *htable.Table, fs *FS) {
	unlock := ht.LockAll()
	fs.inoMu.Lock()
	fs.inoMu.Unlock()
	unlock()
}

// lockAllInverted grabs every bucket under the inode-table lock.
func lockAllInverted(ht *htable.Table, fs *FS) {
	fs.inoMu.Lock()
	unlock := ht.LockAll() // want "while holding"
	unlock()
	fs.inoMu.Unlock()
}
