package libfs

import (
	"sync/atomic"

	"arckfs/internal/fsapi"
	"arckfs/internal/htable"
	"arckfs/internal/pmem"
	"arckfs/internal/rcu"
)

// dirRef publishes a directory minode's auxiliary state (nil for a file).
// A dirState is type-stable memory: one that a rebuild or an rmdir retires
// is, after the grace period, some directory's state again (Linux's
// SLAB_TYPESAFE_BY_RCU rule). So it is read through three accessors, each
// named for the guard that keeps the state mi's while the caller uses it:
// pinned, locked and exclusive. The stores are build's and Rmdir's, under
// mi.lock, and Mkdir's, before any other thread can reach mi.
type dirRef struct{ p atomic.Pointer[dirState] }

func (d *dirRef) set(ds *dirState) { d.p.Store(ds) }

// exclusive is for a caller that holds mi.lock exclusive, or alone can
// reach mi: no one replaces the state meanwhile.
func (d *dirRef) exclusive() *dirState { return d.p.Load() }

// pinned is for a caller inside rd's read-side section, entered before the
// load: a state retired after it is neither emptied nor reused until the
// section ends. rd is nil on the §4.4 and §4.5 bug paths, whose states are
// never reused (reusesDirs).
func (d *dirRef) pinned(dev *pmem.Device, rd *rcu.Reader) *dirState {
	if rd != nil && !rd.Active() {
		panic("libfs: directory state pinned outside a read-side section")
	}
	ds := d.p.Load()
	dev.Killpoint(siteDirStateLoaded)
	return ds
}

// dirLock is the lock locked takes: name's bucket for a writer; since's
// idxMu for a verification, since being the state loaded before its
// crossing, tried once; with neither, every bucket, for a listing.
type dirLock struct {
	bucket string
	since  *dirState
}

// locked runs fn on mi's state under lk once it has seen, under that lock,
// that mi still holds the state (a rebuild or an rmdir swaps it out before
// it retires it, and Drain and Clear wait for the bucket locks) and, for a
// writer, that mi is held (a release takes every bucket lock, so one may
// have slipped in since the caller looked). Otherwise it tries again, a
// writer taking mi back first, outside the lock a release of it would
// need: a write behind the verification that made its mapping dormant
// would go unchecked. A removed directory's state is not locked:
// ErrNotExist. lb is a writer's bucket, and only a writer's t is used.
func (fs *FS) locked(t *Thread, mi *minode, lk dirLock, fn func(ds *dirState, lb htable.LockedBucket) error) error {
	for {
		ds := lk.since
		if ds == nil {
			if ds = mi.dir.p.Load(); ds == removedDir {
				return fsapi.ErrNotExist
			}
			fs.dev.Killpoint(siteDirStateBeforeLock)
		}
		ok := false
		var err error
		run := func(lb htable.LockedBucket) {
			if ok = mi.dir.p.Load() == ds && (lk.bucket == "" || !mi.released.Load()); ok {
				err = fn(ds, lb)
			}
		}
		switch {
		case lk.since != nil:
			ds.idxMu.Lock()
			run(htable.LockedBucket{})
			ds.idxMu.Unlock()
		case lk.bucket != "":
			ds.ht.WithBucket(lk.bucket, run)
		default:
			ds.ht.WithAll(func() { run(htable.LockedBucket{}) })
		}
		if ok || lk.since != nil {
			return err
		}
		if lk.bucket != "" {
			if err := fs.reacquire(t, mi); err != nil {
				return err
			}
		}
	}
}
