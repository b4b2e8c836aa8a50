// Package htable implements the directory auxiliary-state hash table of
// ArckFS: DRAM name → inode index with one spinlock per bucket, entry
// reuse through a freelist, and growth by rehashing.
//
// The table supports the three reader disciplines the paper discusses:
//
//   - ArckFS as shipped (§4.5 bug): readers traverse buckets with no lock
//     and no reclamation protection, under the (incorrect) assumption
//     that entries are never freed. Deleted entries are returned to a
//     freelist and immediately reusable, so a concurrent reader can
//     observe recycled memory. In C this is a use-after-free segfault;
//     here each pooled entry carries a generation counter and a reader
//     that observes a torn generation reports ErrUseAfterFree, the
//     simulated segfault.
//   - ArckFS+ (§4.5 patch): readers run inside RCU read-side critical
//     sections and writers retire entries through rcu.Domain.Defer, so
//     the entry cannot be recycled while a reader may hold it.
//   - Locked readers: used by writers that already hold the bucket lock.
//
// The table deliberately does not know what its payloads mean: the LibFS
// stores the inode number and the persistent-memory location of the
// backing dentry record, and decides how much of the persistent update
// happens inside the bucket critical section (that extent is exactly the
// §4.4 bug).
package htable

import (
	"errors"
	"sync"
	"sync/atomic"

	"arckfs/internal/hlock"
	"arckfs/internal/rcu"
)

// ErrUseAfterFree is the simulated segmentation fault: a lockless reader
// observed an entry that was freed (and possibly recycled) mid-read.
var ErrUseAfterFree = errors.New("htable: use-after-free detected (simulated segfault)")

// Entry is a pooled chain node. Fields other than gen/next are valid only
// while the generation observed before and after reading them matches and
// is odd (live).
type Entry struct {
	gen  atomic.Uint64 // odd = live, even = free; bumped on alloc and free
	next atomic.Pointer[Entry]

	hash uint32
	name string
	Ino  uint64
	// ref is the opaque payload: the PM location of the dentry record. It
	// is atomic because log compaction relocates records — and rewrites
	// this word through SetRef — while lockless readers may be loading it.
	ref atomic.Uint64
}

// Name returns the entry's name.
func (e *Entry) Name() string { return e.name }

// Ref returns the entry's payload.
func (e *Entry) Ref() uint64 { return e.ref.Load() }

// SetRef replaces the entry's payload in place. The caller holds the
// entry's bucket lock (or LockAll).
func (e *Entry) SetRef(ref uint64) { e.ref.Store(ref) }

// pool recycles entries through a freelist so that, as in the C artifact,
// a freed entry's memory can be handed out again immediately.
type pool struct {
	mu   hlock.SpinLock
	free []*Entry
}

func (p *pool) alloc() *Entry {
	p.mu.Lock()
	var e *Entry
	if n := len(p.free); n > 0 {
		e = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if e == nil {
		e = &Entry{}
	}
	e.gen.Add(1) // even -> odd: live
	return e
}

func (p *pool) release(e *Entry) {
	e.gen.Add(1) // odd -> even: free
	e.next.Store(nil)
	p.mu.Lock()
	p.free = append(p.free, e)
	p.mu.Unlock()
}

type bucket struct {
	lock hlock.SpinLock
	head atomic.Pointer[Entry]
	_    [48]byte
}

type bucketArray struct {
	buckets []bucket
	mask    uint32
}

// Options selects the reader discipline.
type Options struct {
	// RCUReaders enables the §4.5 patch: lockless readers are protected
	// by the domain and frees are deferred past a grace period.
	RCUReaders bool
	// Dom is required when RCUReaders is set.
	Dom *rcu.Domain
	// InitialBuckets must be a power of two; 0 means 8.
	InitialBuckets int
	// StrictUAF makes a lockless reader fault (ErrUseAfterFree) the
	// moment it observes a recycled entry — the instrumented build the
	// paper uses to manifest §4.5. Without it, the reader restarts the
	// traversal, which is what the un-instrumented artifact effectively
	// does on real hardware (the window is nanoseconds and the recycled
	// memory is usually a valid entry again).
	StrictUAF bool
}

// Table is the per-directory name index.
type Table struct {
	opts Options
	arr  atomic.Pointer[bucketArray]
	pool pool

	growMu sync.Mutex
	count  atomic.Int64

	// TraverseHook, if set, runs for every chain node a lockless reader
	// visits, between loading the node pointer and reading its fields.
	// Tests use it to open the §4.5 race window deterministically.
	TraverseHook func()
}

// New creates a table.
func New(opts Options) *Table {
	n := opts.InitialBuckets
	if n == 0 {
		n = 8
	}
	if n&(n-1) != 0 {
		panic("htable: InitialBuckets must be a power of two")
	}
	if opts.RCUReaders && opts.Dom == nil {
		panic("htable: RCUReaders requires a Domain")
	}
	t := &Table{opts: opts}
	t.arr.Store(&bucketArray{buckets: make([]bucket, n), mask: uint32(n - 1)})
	return t
}

// Hash is FNV-1a, exported so the LibFS can co-locate hashes in dentry
// records.
func Hash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

// Len returns the number of live entries.
func (t *Table) Len() int { return int(t.count.Load()) }

// lockBucket locks the bucket for hash under the current array, retrying
// across concurrent resizes, and returns the array and bucket.
func (t *Table) lockBucket(h uint32) (*bucketArray, *bucket) {
	for {
		arr := t.arr.Load()
		b := &arr.buckets[h&arr.mask]
		b.lock.Lock()
		if t.arr.Load() == arr {
			return arr, b
		}
		b.lock.Unlock()
	}
}

// LockedBucket gives a writer exclusive access to one bucket so the LibFS
// can extend the critical section over the persistent update (§4.4).
type LockedBucket struct {
	t   *Table
	arr *bucketArray
	b   *bucket
}

// WithBucket runs fn with the bucket for name locked.
func (t *Table) WithBucket(name string, fn func(*LockedBucket)) {
	h := Hash(name)
	arr, b := t.lockBucket(h)
	lb := LockedBucket{t: t, arr: arr, b: b}
	defer func() {
		b.lock.Unlock()
		t.maybeGrow()
	}()
	fn(&lb)
}

// Get looks name up under the bucket lock.
func (lb *LockedBucket) Get(name string) (*Entry, bool) {
	h := Hash(name)
	for e := lb.b.head.Load(); e != nil; e = e.next.Load() {
		if e.hash == h && e.name == name {
			return e, true
		}
	}
	return nil, false
}

// Insert adds a live entry; it reports false if name already exists.
func (lb *LockedBucket) Insert(name string, ino, ref uint64) bool {
	if _, ok := lb.Get(name); ok {
		return false
	}
	e := lb.t.pool.alloc()
	e.hash = Hash(name)
	e.name = name
	e.Ino = ino
	e.ref.Store(ref)
	e.next.Store(lb.b.head.Load())
	lb.b.head.Store(e)
	lb.t.count.Add(1)
	return true
}

// Delete unlinks name and retires the entry (immediately in buggy mode,
// after a grace period in RCU mode). It returns the entry's payloads.
func (lb *LockedBucket) Delete(name string) (ino, ref uint64, ok bool) {
	h := Hash(name)
	var prev *Entry
	for e := lb.b.head.Load(); e != nil; e = e.next.Load() {
		if e.hash == h && e.name == name {
			ino, ref = e.Ino, e.ref.Load()
			next := e.next.Load()
			if prev == nil {
				lb.b.head.Store(next)
			} else {
				prev.next.Store(next)
			}
			lb.t.count.Add(-1)
			lb.t.retire(e)
			return ino, ref, true
		}
		prev = e
	}
	return 0, 0, false
}

func (t *Table) retire(e *Entry) {
	if t.opts.RCUReaders {
		t.opts.Dom.Defer(func() { t.pool.release(e) })
	} else {
		// ArckFS as shipped: the entry is reusable immediately.
		t.pool.release(e)
	}
}

// Insert is the convenience single-step writer.
func (t *Table) Insert(name string, ino, ref uint64) bool {
	var ok bool
	t.WithBucket(name, func(lb *LockedBucket) { ok = lb.Insert(name, ino, ref) })
	return ok
}

// Delete is the convenience single-step writer.
func (t *Table) Delete(name string) (ino, ref uint64, ok bool) {
	t.WithBucket(name, func(lb *LockedBucket) { ino, ref, ok = lb.Delete(name) })
	return
}

// Lookup finds name without taking the bucket lock: RCU-protected when
// RCUReaders is set, unprotected in the §4.5 buggy mode. rd may be nil
// unless RCU readers are enabled. On a detected recycled read it returns
// ErrUseAfterFree.
func (t *Table) Lookup(rd *rcu.Reader, name string) (ino, ref uint64, ok bool, err error) {
	if t.opts.RCUReaders {
		rd.ReadLock()
		defer rd.ReadUnlock()
	}
	h := Hash(name)
	const maxRestarts = 1000
	for restart := 0; ; restart++ {
		arr := t.arr.Load()
		b := &arr.buckets[h&arr.mask]
		torn := false
		for e := b.head.Load(); e != nil; {
			g1 := e.gen.Load()
			if t.TraverseHook != nil {
				// The hook sits inside the validation window: whatever a
				// test does while the reader is paused here is equivalent
				// to the reader's load of the entry being interleaved
				// with it.
				t.TraverseHook()
			}
			ehash, ename, eino, eref := e.hash, e.name, e.Ino, e.ref.Load()
			next := e.next.Load()
			g2 := e.gen.Load()
			if g1 != g2 || g1%2 == 0 {
				if t.opts.RCUReaders {
					// Cannot happen: frees are deferred past our read lock.
					panic("htable: entry recycled inside an RCU critical section")
				}
				if t.opts.StrictUAF || restart >= maxRestarts {
					return 0, 0, false, ErrUseAfterFree
				}
				torn = true
				break
			}
			if ehash == h && ename == name {
				return eino, eref, true, nil
			}
			e = next
		}
		if !torn {
			return 0, 0, false, nil
		}
	}
}

// Range calls fn for every live entry under bucket locks (a consistent
// per-bucket view; the table may change between buckets). fn must not
// call back into the table. It stops early if fn returns false.
func (t *Table) Range(fn func(name string, ino, ref uint64) bool) {
	arr := t.arr.Load()
	for i := range arr.buckets {
		b := &arr.buckets[i]
		b.lock.Lock()
		if t.arr.Load() != arr {
			// A resize happened; restart on the new array.
			b.lock.Unlock()
			t.Range(fn)
			return
		}
		for e := b.head.Load(); e != nil; e = e.next.Load() {
			if !fn(e.name, e.Ino, e.ref.Load()) {
				b.lock.Unlock()
				return
			}
		}
		b.lock.Unlock()
	}
}

// LockAll locks every bucket (and blocks resizing), quiescing all
// writers — the §4.3 patch uses this to drain a directory before its
// inode is released. The returned function unlocks everything.
func (t *Table) LockAll() (unlock func()) {
	t.growMu.Lock()
	arr := t.arr.Load()
	for i := range arr.buckets {
		arr.buckets[i].lock.Lock()
	}
	return func() {
		for i := range arr.buckets {
			arr.buckets[i].lock.Unlock()
		}
		t.growMu.Unlock()
	}
}

// EachLocked calls fn for every live entry. The caller holds LockAll, so
// no writer can change the table underneath the walk; fn may SetRef.
func (t *Table) EachLocked(fn func(e *Entry)) {
	arr := t.arr.Load()
	for i := range arr.buckets {
		for e := arr.buckets[i].head.Load(); e != nil; e = e.next.Load() {
			fn(e)
		}
	}
}

// maybeGrow doubles the bucket array when the load factor exceeds 4.
// Growth copies entries into fresh nodes and retires the old ones, so
// in-flight lockless readers keep traversing intact old chains.
func (t *Table) maybeGrow() {
	arr := t.arr.Load()
	if t.count.Load() <= int64(len(arr.buckets))*4 {
		return
	}
	t.growMu.Lock()
	defer t.growMu.Unlock()
	arr = t.arr.Load()
	if t.count.Load() <= int64(len(arr.buckets))*4 {
		return
	}
	// Lock every old bucket to freeze writers.
	for i := range arr.buckets {
		arr.buckets[i].lock.Lock()
	}
	newArr := &bucketArray{
		buckets: make([]bucket, len(arr.buckets)*2),
		mask:    uint32(len(arr.buckets)*2 - 1),
	}
	for i := range arr.buckets {
		for e := arr.buckets[i].head.Load(); e != nil; e = e.next.Load() {
			ne := t.pool.alloc()
			ne.hash, ne.name, ne.Ino = e.hash, e.name, e.Ino
			ne.ref.Store(e.ref.Load())
			nb := &newArr.buckets[ne.hash&newArr.mask]
			ne.next.Store(nb.head.Load())
			nb.head.Store(ne)
		}
	}
	t.arr.Store(newArr)
	for i := range arr.buckets {
		// Retire old nodes after publication; old readers may still be
		// walking them.
		for e := arr.buckets[i].head.Load(); e != nil; {
			next := e.next.Load()
			t.retire(e)
			e = next
		}
		arr.buckets[i].head.Store(nil)
		arr.buckets[i].lock.Unlock()
	}
}
