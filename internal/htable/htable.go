// Package htable implements the directory auxiliary-state hash table of
// ArckFS: DRAM name → inode index with one spinlock per bucket, chain
// nodes cut from slabs and reused through a freelist, and growth by
// rehashing into one slab.
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
//     sections and writers hand the entry itself to rcu.Domain.Retire —
//     it is its own rcu_head — so it cannot be recycled while a reader
//     may hold it, and deleting a name allocates nothing.
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
	// is atomic because a recycled entry is rewritten while a §4.5 buggy
	// reader, whose unprotected traversal can still reach it, may be
	// loading it.
	ref atomic.Uint64

	// pool is where the entry goes back to.
	pool *pool
}

// Reclaim returns the entry to its table's freelist: an unlinked entry is
// what a writer retires through the RCU domain (rcu.Reclaimer).
func (e *Entry) Reclaim() { e.pool.release(e) }

// Name returns the entry's name.
func (e *Entry) Name() string { return e.name }

// Ref returns the entry's payload.
func (e *Entry) Ref() uint64 { return e.ref.Load() }

// Slabs start at minSlab entries and double up to maxSlab: a directory of
// a few names pays for a few, a large one allocates once per maxSlab.
const (
	minSlab = 8
	maxSlab = 256
)

// pool hands out entries: recycled ones first, last freed first, so that —
// as in the C artifact — a freed entry's memory can be handed out again
// immediately; otherwise the next one of the current slab. Freed entries
// are linked through their own next pointers, so freeing one allocates
// nothing.
type pool struct {
	mu    hlock.SpinLock
	free  *Entry  // the freelist, last freed first
	nfree int     // its length
	slab  []Entry // the part of the newest slab not handed out yet
	grow  int     // size of the next slab
}

func (p *pool) alloc() *Entry {
	p.mu.Lock()
	e := p.free
	if e != nil {
		p.free = e.next.Load()
		p.nfree--
	} else {
		if len(p.slab) == 0 {
			p.grow = min(max(2*p.grow, minSlab), maxSlab)
			p.newSlab(p.grow)
		}
		e, p.slab = &p.slab[0], p.slab[1:]
	}
	p.mu.Unlock()
	e.gen.Add(1) // even -> odd: live
	return e
}

func (p *pool) newSlab(n int) {
	p.slab = make([]Entry, n)
	for i := range p.slab {
		p.slab[i].pool = p
	}
}

// push puts e on the freelist. Caller holds p.mu.
func (p *pool) push(e *Entry) {
	e.next.Store(p.free)
	p.free = e
	p.nfree++
}

// reserve makes the next n allocations come out of what the pool has and
// one slab of exactly the size they still need: a table that knows how
// many names it is about to take allocates for them once.
func (p *pool) reserve(n int) {
	p.mu.Lock()
	if need := n - p.nfree - len(p.slab); need > 0 {
		for i := range p.slab {
			p.push(&p.slab[i])
		}
		p.newSlab(need)
	}
	p.mu.Unlock()
}

// release frees e. The generation moves before the link is rewritten, so a
// §4.5 reader that loaded e before the free sees its read torn instead of
// following the freelist as if it were a chain.
func (p *pool) release(e *Entry) {
	e.gen.Add(1) // odd -> even: free
	p.mu.Lock()
	p.push(e)
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

const defaultBuckets = 8

// New creates a table.
func New(opts Options) *Table {
	n := opts.InitialBuckets
	if n == 0 {
		n = defaultBuckets
	}
	if n&(n-1) != 0 {
		panic("htable: InitialBuckets must be a power of two")
	}
	if opts.RCUReaders && opts.Dom == nil {
		panic("htable: RCUReaders requires a Domain")
	}
	t := &Table{opts: opts}
	t.arr.Store(newBucketArray(n))
	return t
}

func newBucketArray(n int) *bucketArray {
	return &bucketArray{buckets: make([]bucket, n), mask: uint32(n - 1)}
}

// Hash is FNV-1a, exported so the LibFS can co-locate hashes in dentry
// records. It takes the name as a string or as the bytes of a record.
func Hash[S string | []byte](name S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

// Len returns the number of live entries.
func (t *Table) Len() int { return int(t.count.Load()) }

// LockedBucket gives a writer exclusive access to one bucket so the LibFS
// can extend the critical section over the persistent update (§4.4). It is
// two words handed around by value: a writer allocates nothing for it.
type LockedBucket struct {
	t *Table
	b *bucket
}

// lockBucket locks the bucket for hash under the current array, retrying
// across concurrent resizes.
func (t *Table) lockBucket(h uint32) LockedBucket {
	for {
		arr := t.arr.Load()
		b := &arr.buckets[h&arr.mask]
		b.lock.Lock()
		if t.arr.Load() == arr {
			return LockedBucket{t: t, b: b}
		}
		b.lock.Unlock()
	}
}

func (lb LockedBucket) unlock() {
	lb.b.lock.Unlock()
	lb.t.maybeGrow()
}

// WithBucket runs fn with the bucket for name locked.
func (t *Table) WithBucket(name string, fn func(LockedBucket)) {
	lb := t.lockBucket(Hash(name))
	defer lb.unlock()
	fn(lb)
}

// find walks b's chain for name (a string, or the bytes of a record), also
// returning the entry's predecessor. Caller holds the bucket lock.
func find[S string | []byte](b *bucket, h uint32, name S) (prev, e *Entry) {
	for e = b.head.Load(); e != nil; prev, e = e, e.next.Load() {
		if e.hash == h && e.name == string(name) {
			return prev, e
		}
	}
	return nil, nil
}

// Get looks name up under the bucket lock.
func (lb LockedBucket) Get(name string) (*Entry, bool) {
	_, e := find(lb.b, Hash(name), name)
	return e, e != nil
}

// Insert adds a live entry; it reports false if name already exists.
func (lb LockedBucket) Insert(name string, ino, ref uint64) bool {
	h := Hash(name)
	if _, e := find(lb.b, h, name); e != nil {
		return false
	}
	e := lb.t.pool.alloc()
	e.hash = h
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
func (lb LockedBucket) Delete(name string) (ino, ref uint64, ok bool) {
	prev, e := find(lb.b, Hash(name), name)
	if e == nil {
		return 0, 0, false
	}
	ino, ref = e.Ino, e.ref.Load()
	if next := e.next.Load(); prev == nil {
		lb.b.head.Store(next)
	} else {
		prev.next.Store(next)
	}
	lb.t.count.Add(-1)
	lb.t.retire(e)
	return ino, ref, true
}

func (t *Table) retire(e *Entry) {
	if t.opts.RCUReaders {
		t.opts.Dom.Retire(e)
	} else {
		// ArckFS as shipped: the entry is reusable immediately.
		t.pool.release(e)
	}
}

// Insert is the convenience single-step writer.
func (t *Table) Insert(name string, ino, ref uint64) bool {
	lb := t.lockBucket(Hash(name))
	ok := lb.Insert(name, ino, ref)
	lb.unlock()
	return ok
}

// Delete is the convenience single-step writer.
func (t *Table) Delete(name string) (ino, ref uint64, ok bool) {
	lb := t.lockBucket(Hash(name))
	ino, ref, ok = lb.Delete(name)
	lb.unlock()
	return
}

// Intern returns the record name as a string: the table's own copy when
// it holds the name, so that a table rebuilt from a log most of which an
// older table already indexes allocates strings for the new names only.
func (t *Table) Intern(name []byte) string {
	h := Hash(name)
	lb := t.lockBucket(h)
	defer lb.b.lock.Unlock()
	if _, e := find(lb.b, h, name); e != nil {
		return e.name
	}
	return string(name)
}

// Reserve readies the table to take n more names with one allocation for
// their entries; with InitialBuckets from BucketsFor(n), the way to build
// a table for a directory of known size.
func (t *Table) Reserve(n int) { t.pool.reserve(n) }

// BucketsFor returns the InitialBuckets under which n entries insert
// without the table growing.
func BucketsFor(n int) int {
	b := defaultBuckets
	for b*4 < n {
		b *= 2
	}
	return b
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
	arr := t.lockAll()
	return func() { t.unlockAll(arr) }
}

// lockAll blocks resizing and locks every bucket of the array it returns.
func (t *Table) lockAll() *bucketArray {
	t.growMu.Lock()
	arr := t.arr.Load()
	for i := range arr.buckets {
		arr.buckets[i].lock.Lock()
	}
	return arr
}

// unlockAll undoes lockAll.
func (t *Table) unlockAll(arr *bucketArray) {
	for i := range arr.buckets {
		arr.buckets[i].lock.Unlock()
	}
	t.growMu.Unlock()
}

// EachLocked calls fn for every live entry. The caller holds LockAll, so
// no writer can change the table underneath the walk.
func (t *Table) EachLocked(fn func(e *Entry)) {
	arr := t.arr.Load()
	for i := range arr.buckets {
		for e := arr.buckets[i].head.Load(); e != nil; e = e.next.Load() {
			fn(e)
		}
	}
}

// Drain returns once every writer that was inside a bucket critical
// section when it was called has left it. A writer that takes a bucket
// lock after that sees whatever the caller stored before calling Drain;
// unlike LockAll it allocates nothing.
func (t *Table) Drain() { t.unlockAll(t.lockAll()) }

// Reuse readies t for a new owner once no reader or writer can reach it,
// and reports whether it can have one: only an empty table can. The table
// keeps its options and its entries, on their freelist, and its bucket
// array if that has at most maxBuckets buckets; a larger one is replaced by
// an array of buckets buckets, a power of two.
func (t *Table) Reuse(maxBuckets, buckets int) bool {
	if t.Len() != 0 {
		return false
	}
	if len(t.arr.Load().buckets) > maxBuckets {
		t.arr.Store(newBucketArray(buckets))
	}
	return true
}

// maybeGrow doubles the bucket array when the load factor exceeds 4.
// Growth copies entries into fresh nodes — one slab for what the freelist
// does not cover — and retires the old ones, so in-flight lockless readers
// keep traversing intact old chains.
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
	newArr := newBucketArray(len(arr.buckets) * 2)
	t.pool.reserve(int(t.count.Load()))
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
		// walking them, so the old heads stay as they are. Writers re-check
		// t.arr under the bucket lock and never touch the old chains again.
		for e := arr.buckets[i].head.Load(); e != nil; {
			next := e.next.Load()
			t.retire(e)
			e = next
		}
		arr.buckets[i].lock.Unlock()
	}
}
