package kernel

import (
	"fmt"
	"slices"
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
	"arckfs/internal/telemetry"
	"arckfs/internal/verifier"
)

// lockShard takes ino's shard lock. When the caller supplied a span sink
// and the lock was contended, the blocked wait is reported as a timed
// shard-wait event — the per-span view of the aggregate
// kernel.shard.contended gauge.
func (c *Controller) lockShard(ino uint64, sink telemetry.SpanSink) *shadowShard {
	sh := c.shardOf(ino)
	if sink == nil {
		sh.mu.Lock()
	} else if !sh.mu.TryLock() {
		begin := time.Now()
		sh.mu.Lock()
		sink.SpanEvent(telemetry.SpanEvShardWait, int64(shardIndex(ino)),
			time.Since(begin).Nanoseconds())
	}
	return sh
}

// ctlView adapts the controller to verifier.KernelView.
//
// held is the shard the verification in progress already holds (the
// verified inode's own shard on the shared fast path; nil under the
// exclusive epoch). Fast-path verifications are file-only, and the file
// verifier touches no shadow entry but the file's own (VerifyFile and
// the file branch of VerifyNewInode read Shadow(ino) plus page-owner
// words), so cross-shard lookups here — which briefly take another
// shard's same-rank lock — only ever run under the exclusive epoch,
// where no other holder exists. Every write goes through q.
type ctlView struct {
	c    *Controller
	held *shadowShard
	q    *persistQ
	// dir is the directory a verification through this view parses, whose
	// page lists CleanPage keeps (nil outside VerifyDir).
	dir *shadowEnt
}

func (v ctlView) Shadow(ino uint64) (verifier.ShadowInfo, bool) {
	se := v.c.shadowGet(ino, v.held)
	if se == nil {
		return verifier.ShadowInfo{}, false
	}
	return se.info, true
}

func (v ctlView) InodeGrantedTo(app AppID, ino uint64) bool {
	return v.c.inoGranted(app, ino)
}

func (v ctlView) PageUsableBy(app AppID, ino, page uint64) bool {
	if page >= uint64(len(v.c.pages)) {
		return false
	}
	o := v.c.pageOwnerAt(page)
	return o == ownApp(app) || o == ownIno(ino)
}

func (v ctlView) OwnedBy(app AppID, ino uint64) bool {
	se := v.c.shadowGet(ino, v.held)
	if se == nil || se.owner != app {
		return false
	}
	// A dormant hold was voluntarily released: for verification purposes
	// the app no longer holds the inode, exactly as after a plain
	// Release (LibFS Rule: hold the old parent until the new parent
	// commits — a lease-released parent does not satisfy it).
	return se.mapping == nil || !se.mapping.dormant.Load()
}

func (v ctlView) OwnedByOther(app AppID, ino uint64) bool {
	se := v.c.shadowGet(ino, v.held)
	if se == nil || se.owner == 0 || se.owner == app {
		return false
	}
	// A dormant holder does not block removal — reclaim its lease, just
	// as a plain Release would have left the inode kernel-held.
	if v.c.reclaimDormant(se, false) {
		return false
	}
	return true
}

func (v ctlView) HoldsRenameLock(app AppID) bool {
	return v.c.renameLock.Holder() == app
}

func (v ctlView) IsDescendant(node, anc uint64) bool {
	return v.c.isDescendant(node, anc, v.held)
}

// CleanPage reads and clears page's dirty bit: on hardware the PTE dirty
// bit, which the MMU sets and the LibFS cannot clear. Only a page the owner
// table gives to ino has its bit cleared; any other page is dirty to this
// verification, and its bit is left for its owner's. A page is clean if its
// bit was clear and it is neither harvested nor due a reread. While ino
// stays mapped the clear comes without a TLB shootdown, so a page whose bit
// it found set is harvested.
func (v ctlView) CleanPage(ino, page uint64) bool {
	se := v.dir
	if se == nil || se.info.Ino != ino || page >= uint64(len(v.c.pages)) || v.c.pageOwnerAt(page) != ownIno(ino) {
		return false
	}
	stored := v.c.dev.ClearDirty(page)
	harvested := slices.Contains(se.harvested, page)
	if stored && !harvested && se.mapped() {
		se.harvested, harvested = append(se.harvested, page), true
	}
	n := len(se.reread)
	se.reread = slices.DeleteFunc(se.reread, func(p uint64) bool { return p == page })
	return !stored && !harvested && len(se.reread) == n
}

// mapped reports whether an application's mapping of se is established.
func (se *shadowEnt) mapped() bool {
	return se.mapping.Valid() || len(se.groupMappings) > 0
}

// unmapped moves se's harvested pages to its rereads once its mappings are
// torn down: the unmap's TLB shootdown ends the stores that could skip the
// bit, and the next verification reads what they stored.
func (c *Controller) unmapped(se *shadowEnt) {
	se.reread = append(se.reread, se.harvested...)
	se.harvested = se.harvested[:0]
}

func (c *Controller) isDescendant(node, anc uint64, held *shadowShard) bool {
	cur := node
	for depth := 0; depth < 1<<16; depth++ {
		if cur == anc {
			return true
		}
		if cur == layout.RootIno {
			return false
		}
		se := c.shadowGet(cur, held)
		if se == nil {
			return false
		}
		cur = se.info.Parent
	}
	// Walk exceeded the bound: an existing cycle. Report descent so the
	// caller refuses the operation.
	return true
}

// reclaimDormant tears down a mapping whose holder lease-released the
// inode (Transfer, XferLease). The release-time verification already ran
// and the holder has not re-activated — winning the dormant CAS guarantees
// it never will — so the core state is exactly as verified. That one
// invariant pays twice: the kernel reclaims without re-running the
// verifier, and with handOver (the acquire paths, which establish the next
// holder in the same critical section) the snapshot that release built
// from the view it verified stays on se as the next holder's baseline, so
// the acquire does not parse again. Every other reclaim drops it: no
// snapshot outlives the inode's next acquire. Returns false if there was
// no dormant mapping or the holder re-activated first.
// Caller holds the inode's shard lock or the exclusive epoch.
func (c *Controller) reclaimDormant(se *shadowEnt, handOver bool) bool {
	m := se.mapping
	if m == nil || !m.dormant.CompareAndSwap(true, false) {
		return false
	}
	m.revoke()
	for _, gm := range se.groupMappings {
		gm.revoke()
	}
	se.groupMappings = nil
	c.cost.Unmap()
	c.unmapped(se)
	se.owner = 0
	se.mapping = nil
	if !handOver {
		se.snap = nil
	}
	return true
}

// Acquire grants app access to ino and maps its core state. write
// requests write intent. A second acquire by the current owner is
// idempotent and returns the existing mapping. It is an acquire batch of
// one, on stack arrays, without a span sink.
func (c *Controller) Acquire(appID AppID, ino uint64, write bool) (*Mapping, error) {
	c.syscall()
	inos, out := [1]uint64{ino}, [1]*Mapping{}
	err := c.acquire(appID, inos[:], out[:], write, nil)
	return out[0], err
}

// AcquireBatch takes back, in one crossing, what a LibFS lost since its
// last hold: inos[0] is the inode whose lease miss prompted the crossing,
// the rest the other inodes it lost to a lease miss in its previous hold.
// inos[0] is acquired exactly as Acquire does it, with write intent — the
// same errors, ErrBusy and the punt to the exclusive epoch — and its error
// is the batch's; on an error nothing else is granted. Every other inode
// is granted only if another application holds it dormant (handOverDormant)
// and comes back as a dormant mapping appID may Reactivate without a
// crossing. Until appID reactivates it or ends its hold (Mapping.EndHold),
// apps outside appID's trust group meet it as held (prefetchHeld); after
// that it is an ordinary dormant lease. Anything else in the tail is
// skipped, out[i] nil: no error, no involuntary release, no parse.
//
// The crossing holds the shared epoch and one shard lock at a time, in
// list order; an inos[0] that punts is acquired alone under the exclusive
// epoch. Acquires counts every inode mapped. sink (nil-safe) receives
// timed shard-wait events. A list longer than
// MaxReleaseBatch is refused whole.
func (c *Controller) AcquireBatch(appID AppID, inos []uint64, sink telemetry.SpanSink) ([]*Mapping, error) {
	c.syscall()
	if len(inos) == 0 || len(inos) > MaxReleaseBatch {
		return nil, fmt.Errorf("acquire of %d inodes outside the batch cap 1..%d: %w", len(inos), MaxReleaseBatch, fsapi.ErrInval)
	}
	out := make([]*Mapping, len(inos))
	return out, c.acquire(appID, inos, out, true, sink)
}

// acquire is the body of both acquire forms, filling out (len(inos)) with
// what it maps.
func (c *Controller) acquire(appID AppID, inos []uint64, out []*Mapping, write bool, sink telemetry.SpanSink) error {
	c.Stats.Acquires.Add(1)
	err, punt := c.acquireBatchFast(appID, inos, out, write, sink)
	if punt {
		out[0], err = c.acquireExcl(appID, inos[0], write)
	}
	return err
}

// acquireBatchFast runs an acquire on the shared epoch: inos[0] under its
// shard lock, which covers every acquire that touches only inos[0]'s own
// shard — all of them except the expired-lease involuntary release
// (punt=true) — then the tail.
func (c *Controller) acquireBatchFast(appID AppID, inos []uint64, out []*Mapping, write bool, sink telemetry.SpanSink) (err error, punt bool) {
	e := c.epoch.RLock()
	defer c.epoch.RUnlock(e)
	sh := c.lockShard(inos[0], sink)
	out[0], err, punt = c.acquireHeld(sh.m[inos[0]], appID, inos[0], write, nil)
	sh.mu.Unlock()
	if err != nil || punt || len(inos) == 1 {
		return err, punt
	}
	a := c.lookupApp(appID)
	if a == nil {
		return nil, false // unregistered since the head: grant nothing more
	}
	for i := 1; i < len(inos); i++ {
		sh := c.lockShard(inos[i], sink)
		out[i] = c.handOverDormant(sh.m[inos[i]], a, appID)
		sh.mu.Unlock()
	}
	return nil, false
}

// acquireExcl runs the acquire again from the top under the exclusive
// epoch (the world may have changed since the fast path punted).
func (c *Controller) acquireExcl(appID AppID, ino uint64, write bool) (*Mapping, error) {
	q := c.crossing(true)
	defer c.commit(q)
	m, err, _ := c.acquireHeld(c.shadowGet(ino, nil), appID, ino, write, q)
	return m, err
}

// acquireHeld is the acquire itself — every existence, permission,
// ownership and lease check — on ino's shadow entry se (nil = no such
// inode). The caller holds se's shard lock (q nil) or the exclusive epoch
// (q its crossing's queue); the one thing only the exclusive caller may do
// is the expired-lease involuntary release, whose verification can span
// shards for a directory: the shard-locked caller gets punt=true instead.
func (c *Controller) acquireHeld(se *shadowEnt, appID AppID, ino uint64, write bool, q *persistQ) (m *Mapping, err error, punt bool) {
	a := c.lookupApp(appID)
	if a == nil {
		return nil, fmt.Errorf("kernel: unknown app %d", appID), false
	}
	if se == nil || (!se.info.Committed && se.owner != appID) {
		return nil, fsapi.ErrNotExist, false
	}
	if se.inaccessible {
		return nil, fmt.Errorf("inode %d marked inaccessible: %w", ino, fsapi.ErrPerm), false
	}
	perm := se.info.Perm
	if ov, ok := se.acl[appID]; ok {
		perm = ov
	}
	if write && perm&layout.PermWrite == 0 {
		return nil, fsapi.ErrPerm, false
	}
	if !write && perm&layout.PermRead == 0 {
		return nil, fsapi.ErrPerm, false
	}
	if se.owner == appID {
		if m := se.mapping; m != nil && m.dormant.Load() {
			// Our own lease-released hold: take it back in-kernel. A
			// failed CAS means the LibFS re-activated concurrently;
			// either way the mapping is active again.
			m.dormant.CompareAndSwap(true, false)
		}
		se.lease = c.now().Add(leaseTTL)
		return se.mapping, nil, false
	}
	if se.owner != 0 && c.prefetchHeld(se, a) {
		return nil, errBusy(ino, se.owner), false
	}
	if se.owner != 0 && !c.reclaimDormant(se, true) {
		if sameGroup(c.lookupApp(se.owner), a) {
			return c.groupTransfer(se, appID), nil, false
		}
		if c.now().Before(se.lease) {
			return nil, errBusy(ino, se.owner), false
		}
		if q == nil {
			return nil, nil, true
		}
		// Lease expired: involuntary release. The holder may be mid-
		// operation; that is its problem (§4.3 discussion).
		c.Stats.Involuntary.Add(1)
		if err := c.releaseHeld(se, se.owner, ctlView{c: c, q: q}); err != nil && !IsVerificationError(err) {
			return nil, err, false
		}
	}
	if err := c.establish(se, appID); err != nil {
		return nil, err, false
	}
	return se.mapping, nil, false
}

// prefetchHeld reports whether se's mapping is a batch's prefetch that a's
// acquire must meet as held: dormant, neither reactivated nor released from
// its hold by its owner (Mapping.held), within its lease, and owned outside
// a's trust group — a group peer takes it as it takes any dormant lease.
// Without the hold, a read-only touch by the app the batch took the inode
// from could take it straight back before the batch's owner touched it,
// and turn that touch — a write, as likely as not — into ErrBusy, where a
// single acquire at the touch would have left the reader the stale read.
// Caller holds se's shard lock or the exclusive epoch.
func (c *Controller) prefetchHeld(se *shadowEnt, a *app) bool {
	m := se.mapping
	if m == nil || !m.held.Load() || !m.dormant.Load() || !c.now().Before(se.lease) {
		return false
	}
	holder := c.lookupApp(se.owner)
	return holder != nil && !sameGroup(holder, a)
}

// sameGroup reports whether apps a and b (either may be nil) are in one
// trust group.
func sameGroup(a, b *app) bool {
	return a != nil && b != nil && a.group.Load() != 0 && a.group.Load() == b.group.Load()
}

// handOverDormant grants a batch's tail inode se to a, application appID,
// if another application holds it dormant and a may write it: the dormant
// lease is reclaimed with its snapshot handed over, the inode is
// established for a on that snapshot — no verification, no parse — and the
// new mapping is left dormant and held (Mapping.held). It changes nothing
// and returns nil for any other se: missing, uncommitted, inaccessible,
// kernel-held, already a's, another batch's held prefetch, or actively held
// (by a trust-group peer too), however stale that holder's lease. Caller
// holds se's shard lock.
func (c *Controller) handOverDormant(se *shadowEnt, a *app, appID AppID) *Mapping {
	if se == nil || !se.info.Committed || se.inaccessible || se.owner == 0 || se.owner == appID || se.snap == nil || c.prefetchHeld(se, a) {
		return nil
	}
	perm := se.info.Perm
	if ov, ok := se.acl[appID]; ok {
		perm = ov
	}
	if perm&layout.PermWrite == 0 || !c.reclaimDormant(se, true) {
		return nil
	}
	if err := c.establish(se, appID); err != nil {
		return nil // unreachable: the handed-over snapshot needs no parse
	}
	c.Stats.Acquires.Add(1)
	se.mapping.held.Store(true)
	se.mapping.dormant.Store(true)
	return se.mapping
}

// groupTransfer hands se to a trust-group peer (§5.4): the holder's
// mapping stays established — no verification, no unmap, no rebuild.
// Caller holds se's shard lock or the exclusive epoch.
func (c *Controller) groupTransfer(se *shadowEnt, appID AppID) *Mapping {
	c.Stats.TrustTransfers.Add(1)
	for _, m := range se.groupMappings {
		if m.app == appID && m.Valid() {
			se.lease = c.now().Add(leaseTTL)
			return m
		}
	}
	if len(se.groupMappings) == 0 && se.mapping != nil {
		se.groupMappings = append(se.groupMappings, se.mapping)
	}
	m := newMapping(se.info.Ino, appID)
	se.groupMappings = append(se.groupMappings, m)
	se.owner = appID
	se.mapping = m
	se.lease = c.now().Add(leaseTTL)
	c.cost.Map()
	return m
}

// establish makes app the holder of kernel-held se and maps its core
// state. The baseline is the snapshot a dormant holder's release handed
// over (reclaimDormant) when there is one; otherwise it is parsed here.
// Caller holds se's shard lock or the exclusive epoch.
func (c *Controller) establish(se *shadowEnt, appID AppID) error {
	if se.snap == nil {
		snap, err := c.buildSnapshot(se)
		if err != nil {
			// A kernel-held inode that does not parse is corrupt at rest.
			se.inaccessible = true
			return fmt.Errorf("inode %d unreadable at acquire: %w", se.info.Ino, err)
		}
		se.snap = snap
	}
	se.owner = appID
	se.mapping = newMapping(se.info.Ino, appID)
	se.lease = c.now().Add(leaseTTL)
	c.cost.Map()
	return nil
}

// buildSnapshot parses the inode's metadata state at a cold acquire, where
// the parse is also the only structural check on what a previous holder
// left behind. Transfers that keep the hold — or leave it dormant for the
// next acquire to adopt — snapshot the view they just verified instead.
func (c *Controller) buildSnapshot(se *shadowEnt) (*snapshot, error) {
	ino := se.info.Ino
	switch se.info.Type {
	case layout.TypeDir:
		dv, err := c.ver.ParseDir(ino)
		if err != nil {
			return nil, err
		}
		return c.newSnapshot(ino, dv, nil, nil), nil
	case layout.TypeFile:
		fv, err := c.ver.ParseFile(ino)
		if err != nil {
			return nil, err
		}
		return c.newSnapshot(ino, nil, fv, nil), nil
	}
	return nil, fmt.Errorf("inode %d: unknown type %d", ino, se.info.Type)
}

// newSnapshot makes a parsed view (dv or fv) ino's snapshot: the baseline
// is the view itself, so what a transfer verified and what the next one
// diffs against cannot drift apart, and the rollback bytes are copied raw.
// old, the snapshot this one supersedes, donates its buffer.
func (c *Controller) newSnapshot(ino uint64, dv *verifier.DirView, fv *verifier.FileView, old *snapshot) *snapshot {
	snap := &snapshot{dir: dv, file: fv}
	if n := snap.rawSize(); old != nil && cap(old.raw) >= n {
		snap.raw = old.raw[:n]
	} else {
		snap.raw = make([]byte, n)
	}
	c.copySnapshot(ino, snap, nil)
	return snap
}

func (s *snapshot) pages() []uint64 {
	if s.dir != nil {
		return s.dir.Pages
	}
	return s.file.MapPages
}

func (s *snapshot) rawSize() int {
	n := layout.InodeSize + len(s.pages())*layout.PageSize
	if s.dir != nil {
		n += layout.PageSize // the tail set
	}
	return n
}

// copySnapshot fills snap.raw from the device, or with a restore queue
// writes it back through that queue: the inode record, a directory's
// tail-set page, then the view's pages in order.
func (c *Controller) copySnapshot(ino uint64, snap *snapshot, restore *persistQ) {
	raw := snap.raw
	move := func(off int64, n int) {
		if restore != nil {
			c.dev.Write(off, raw[:n])
			restore.Flush(off, int64(n))
		} else {
			c.dev.Read(off, raw[:n])
		}
		raw = raw[n:]
	}
	move(layout.InodeOff(c.geo, ino), layout.InodeSize)
	if snap.dir != nil {
		move(int64(snap.dir.Inode.DataRoot*layout.PageSize), layout.PageSize)
	}
	for _, p := range snap.pages() {
		move(int64(p*layout.PageSize), layout.PageSize)
	}
}

// XferKind is what a Transfer does with each inode. All three kinds share
// one guard and one verification.
type XferKind int

const (
	// XferRelease returns the inode: unmap, verify, apply or roll back.
	XferRelease XferKind = iota
	// XferCommit verifies and applies the inode's state and keeps the hold
	// [Trio §4.3]: the Rule-1 commit of a pending inode, or a held inode's
	// delta, whose view becomes the new baseline.
	XferCommit
	// XferLease verifies and applies as XferRelease does, but leaves the
	// mapping established and dormant: the LibFS may Reactivate it without
	// a crossing until the kernel reclaims it (reclaimDormant).
	XferLease
)

// MaxReleaseBatch is the most inodes one Transfer crossing accepts: the
// crossing runs all of its verifications as one syscall, so the work a
// tenant can put behind a single crossing has to be bounded.
const MaxReleaseBatch = 64

// Released is one inode's outcome of a Transfer.
type Released struct {
	// Mapping is the dormant mapping an XferLease left established, for
	// the LibFS to cache; nil after the other kinds, and after a failed
	// verification (the inode was fully released).
	Mapping *Mapping
	Err     error
}

// Transfer applies kind to inos in one crossing, one by one in the order
// given, which the caller makes Rule-1 order (parents before children):
// files under their shard lock and directories under the exclusive epoch.
// A failed verification tears down that inode only; the rest of the batch
// proceeds. Commits counts XferCommit inodes, Releases the other two kinds
// and LeasedReleases XferLease.
//
// sink (nil-safe) receives timed shard-wait events. A batch longer than
// MaxReleaseBatch, or of an unknown kind, is refused whole.
func (c *Controller) Transfer(appID AppID, inos []uint64, kind XferKind, sink telemetry.SpanSink) []Released {
	c.syscall()
	out := make([]Released, len(inos))
	n := int64(len(inos))
	if n > MaxReleaseBatch || kind < XferRelease || kind > XferLease {
		err := fmt.Errorf("transfer of %d inodes of kind %d: the cap is %d, the kinds 0..%d: %w", n, kind, MaxReleaseBatch, XferLease, fsapi.ErrInval)
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	switch kind {
	case XferCommit:
		c.Stats.Commits.Add(n)
	case XferLease:
		c.Stats.LeasedReleases.Add(n)
		fallthrough
	default:
		c.Stats.Releases.Add(n)
	}
	q := c.crossing(false)
	defer c.commit(q)
	for i, ino := range inos {
		out[i].Mapping, out[i].Err = c.transfer(appID, ino, kind, sink, q)
	}
	return out
}

// Release is a plain Transfer of one.
func (c *Controller) Release(appID AppID, ino uint64) error {
	return c.Transfer(appID, []uint64{ino}, XferRelease, nil)[0].Err
}

// transfer applies one transfer kind to ino. A crossing that reaches a
// directory keeps an epoch to its commit: no crossing that spans records
// may read the directory's change before it is durable. Files that follow
// run on the epoch downgraded to shared, beside other apps' file crossings
// (a file's change is one record, which the next writer rewrites whole).
func (c *Controller) transfer(appID AppID, ino uint64, kind XferKind, sink telemetry.SpanSink, q *persistQ) (*Mapping, error) {
	if q.excl {
		if se := c.shadowGet(ino, nil); se != nil && se.info.Type == layout.TypeDir {
			return c.transferHeld(se, appID, ino, kind, ctlView{c: c, q: q})
		}
		q.excl, q.shared = false, c.epoch.Downgrade()+1
	}
	if m, err, punt := c.transferFast(appID, ino, kind, sink, q); !punt {
		return m, err
	}
	if q.shared > 0 { // the directories so far go durable before others may look
		c.persist(q)
		c.leaveEpoch(q)
	}
	c.enterExcl()
	q.excl = true
	return c.transferHeld(c.shadowGet(ino, nil), appID, ino, kind, ctlView{c: c, q: q})
}

// transferFast handles file transfers on the shared epoch: file
// verification touches only the file's own shadow entry and page-owner
// words, so the shard lock suffices. Directories punt to the exclusive
// epoch (their commits create, relocate, and free children on other
// shards).
func (c *Controller) transferFast(appID AppID, ino uint64, kind XferKind, sink telemetry.SpanSink, q *persistQ) (m *Mapping, err error, punt bool) {
	if q.shared == 0 {
		e := c.epoch.RLock()
		defer c.epoch.RUnlock(e)
	}
	sh := c.lockShard(ino, sink)
	defer sh.mu.Unlock()

	se := sh.m[ino]
	if se != nil && se.info.Type == layout.TypeDir {
		return nil, nil, true
	}
	m, err = c.transferHeld(se, appID, ino, kind, ctlView{c: c, held: sh, q: q})
	return m, err, false
}

// transferHeld guard-checks and applies one transfer kind to ino's shadow
// entry se (nil = no such inode). Caller holds se's shard lock or the
// exclusive epoch.
func (c *Controller) transferHeld(se *shadowEnt, appID AppID, ino uint64, kind XferKind, view ctlView) (*Mapping, error) {
	if se == nil {
		// Either a LibFS Rule 1 violation (releasing a granted inode whose
		// parent was never committed — from the kernel's perspective it is
		// disconnected from the root) or plain absence.
		if c.inoGranted(appID, ino) {
			return nil, &verifier.FailError{Ino: ino, Reason: "new inode disconnected from the root (I3, LibFS Rule 1)"}
		}
		return nil, fsapi.ErrNotExist
	}
	if se.owner != appID || appID == 0 { // owner 0 is the kernel, not an app
		return nil, fmt.Errorf("inode %d not held by app %d: %w", ino, appID, fsapi.ErrPerm)
	}
	if m := se.mapping; m != nil && m.dormant.Load() {
		// The app transfers an inode it had lease-released (a LibFS may
		// order a Commit of a released parent before re-activating it):
		// take the lease back and proceed as an active holder.
		m.dormant.CompareAndSwap(true, false)
	}
	switch kind {
	case XferCommit:
		return nil, c.verifyAndApply(se, appID, true, view)
	case XferRelease:
		return nil, c.releaseHeld(se, appID, view)
	}
	// XferLease.
	if len(se.groupMappings) > 0 {
		// Trust-group peers hold concurrently valid mappings; a dormant
		// lease has no single holder to hand back to. Plain release.
		return nil, c.releaseHeld(se, appID, view)
	}
	if err := c.verifyAndApply(se, appID, true, view); err != nil {
		// Failed verification tears the hold down exactly as Release
		// does (the policy — rollback or inaccessible — was applied by
		// verifyAndApply).
		if se.mapping != nil {
			se.mapping.revoke()
		}
		c.cost.Unmap()
		c.unmapped(se)
		se.owner = 0
		se.mapping = nil
		se.snap = nil
		return nil, err
	}
	se.lease = c.now().Add(leaseTTL)
	se.mapping.held.Store(false) // a released prefetch is an ordinary lease
	se.mapping.dormant.Store(true)
	return se.mapping, nil
}

// releaseHeld tears down se's hold: revoke, unmap, verify, apply or
// roll back. Caller holds se's shard lock or the exclusive epoch.
func (c *Controller) releaseHeld(se *shadowEnt, appID AppID, view ctlView) error {
	se.mapping.revoke()
	for _, m := range se.groupMappings {
		m.revoke()
	}
	se.groupMappings = nil
	c.cost.Unmap()
	c.unmapped(se)
	err := c.verifyAndApply(se, appID, false, view)
	se.owner = 0
	se.mapping = nil
	se.snap = nil
	return err
}

// verifyAndApply runs the verifier on se's current core state and
// applies the verdict. keepHeld distinguishes Commit from Release: the
// hold continues, so the view just verified becomes the new baseline —
// never a second parse, which would cost the transfer twice and let
// writes a still-mapped holder slips in between the two become baseline
// without having been verified.
// Caller holds se's shard lock (files) or the exclusive epoch.
func (c *Controller) verifyAndApply(se *shadowEnt, appID AppID, keepHeld bool, view ctlView) error {
	c.Stats.Verifications.Add(1)
	ino := se.info.Ino

	if !se.info.Committed {
		// Rule-1 commit of a newly created inode.
		res, err := c.ver.VerifyNewInode(appID, ino, se.info.Parent, view)
		if err != nil {
			c.Stats.VerifyFailures.Add(1)
			c.applyPolicy(se, view)
			return err
		}
		c.applyNewInode(se, appID, res, view)
		if keepHeld {
			se.snap = c.newSnapshot(ino, res.Dir, res.File, nil)
		}
		return nil
	}

	switch se.info.Type {
	case layout.TypeDir:
		view.dir = se
		res, err := c.ver.VerifyDir(appID, ino, se.snap.dir, view)
		if err != nil {
			c.Stats.VerifyFailures.Add(1)
			c.applyPolicy(se, view)
			return err
		}
		se.reread = se.reread[:0]
		c.applyDir(se, appID, res, view.q)
		if keepHeld {
			se.snap = c.newSnapshot(ino, res.View, nil, se.snap)
		}
	case layout.TypeFile:
		res, err := c.ver.VerifyFile(appID, ino, se.snap.file, view)
		if err != nil {
			c.Stats.VerifyFailures.Add(1)
			c.applyPolicy(se, view)
			return err
		}
		c.applyFile(se, appID, res, view.q)
		if keepHeld {
			se.snap = c.newSnapshot(ino, nil, res.View, se.snap)
		}
	default:
		return fmt.Errorf("inode %d: unknown shadow type %d", ino, se.info.Type)
	}
	return nil
}

// applyPolicy handles a verification failure.
func (c *Controller) applyPolicy(se *shadowEnt, view ctlView) {
	switch c.opts.Policy {
	case PolicyRollback:
		c.Stats.Rollbacks.Add(1)
		if se.snap != nil {
			c.copySnapshot(se.info.Ino, se.snap, view.q)
			c.persist(view.q) // the next holder builds on these bytes
		} else {
			// A pending inode has no snapshot: discard it entirely.
			layout.FreeInode(c.dev, c.geo, se.info.Ino)
			view.q.Flush(layout.InodeOff(c.geo, se.info.Ino), layout.InodeSize)
			c.shadowDelete(se.info.Ino, view.held)
			view.q.inos = append(view.q.inos, se.info.Ino)
		}
	case PolicyMarkInaccessible:
		se.inaccessible = true
	}
}

// writeShadow mirrors se to the PM shadow table through q.
func (c *Controller) writeShadow(se *shadowEnt, q *persistQ) {
	ex := &layout.ShadowExtra{
		ChildCount:   se.info.ChildCount,
		Committed:    se.info.Committed,
		Inaccessible: se.inaccessible,
	}
	layout.WriteShadow(c.dev, c.geo, se.info.Ino, &se.inode, ex)
	q.Flush(layout.ShadowOff(c.geo, se.info.Ino), layout.InodeSize)
}

// applyDir commits a successful directory verification. Directory
// transfers always run under the exclusive epoch (they touch children on
// arbitrary shards).
func (c *Controller) applyDir(se *shadowEnt, appID AppID, res *verifier.DirResult, q *persistQ) {
	for _, ch := range res.Changes {
		switch ch.Action {
		case verifier.AddNew:
			c.putPendingChild(appID, ch.Ino, nil)
		case verifier.RelocateIn:
			// Advance the child's verified parent pointer. The Original
			// verifier also tracks parents for files (cross-directory
			// file moves worked in the Trio artifact); its §4.1 defect
			// is on the old-parent side for directories.
			child := c.shadowGet(ch.Ino, nil)
			// A dormant holder's lease does not survive relocation: the
			// next access pays a full Acquire under the new parent.
			c.reclaimDormant(child, false)
			child.info.Parent = se.info.Ino
			child.inode.Parent = se.info.Ino
			c.writeShadow(child, q)
		case verifier.RemoveFile, verifier.RemoveEmptyDir:
			c.freeInode(ch.Ino, q)
		case verifier.RenamedAway:
			// Verified at the new parent's commit; nothing to do here.
		}
	}
	se.inode = res.Inode
	se.info.ChildCount = uint32(len(res.View.Entries))
	c.applyPages(se.info.Ino, appID, res.NewPages, res.FreedPages, q)
	c.writeShadow(se, q)
}

// putPendingChild gives a child that appID created under a directory being
// verified its shadow entry: uncommitted, held by its creator, the inode
// number no longer an outstanding grant. held follows the shadowGet
// convention.
func (c *Controller) putPendingChild(appID AppID, ino uint64, held *shadowShard) {
	c.ungrant(appID, ino)
	cin, _, _ := layout.ReadInode(c.dev, c.geo, ino)
	c.shadowPut(ino, &shadowEnt{
		info:    shadowInfoOf(ino, &cin, 0, false),
		inode:   cin,
		owner:   appID,
		mapping: newMapping(ino, appID),
		lease:   c.now().Add(leaseTTL),
	}, held)
}

func (c *Controller) applyFile(se *shadowEnt, appID AppID, res *verifier.FileResult, q *persistQ) {
	se.inode = res.Inode
	c.applyPages(se.info.Ino, appID, res.NewPages, res.FreedPages, q)
	c.writeShadow(se, q)
}

func (c *Controller) applyNewInode(se *shadowEnt, appID AppID, res *verifier.NewInodeResult, view ctlView) {
	se.inode = res.Inode
	se.info = shadowInfoOf(se.info.Ino, &res.Inode, res.ChildCount, true)
	c.adoptPages(se.info.Ino, appID, res.Pages)
	// PendingChildren only occur for directories, which commit under the
	// exclusive epoch (held == nil): the cross-shard shadowPut is safe.
	for _, ch := range res.PendingChildren {
		c.putPendingChild(appID, ch.Ino, view.held)
	}
	c.writeShadow(se, view.q)
}

func (c *Controller) applyPages(ino uint64, appID AppID, newPages, freed []uint64, q *persistQ) {
	c.adoptPages(ino, appID, newPages)
	for _, p := range freed {
		c.setPageOwner(p, ownFree)
	}
	q.pages = append(q.pages, freed...)
}

// adoptPages moves newly referenced pages from app-granted to
// inode-owned. Pages that were still charged as outstanding grants to
// appID are uncharged from its page quota — adoption is the moment a
// grant stops being the app's liability and becomes file-system state.
func (c *Controller) adoptPages(ino uint64, appID AppID, pages []uint64) {
	adopted := int64(0)
	for _, p := range pages {
		if c.casPageOwner(p, ownApp(appID), ownIno(ino)) {
			adopted++
			continue
		}
		c.setPageOwner(p, ownIno(ino))
	}
	if adopted > 0 {
		if a := c.lookupApp(appID); a != nil {
			a.pagesOut.Add(-adopted)
		}
	}
}

// freeInode reclaims a deleted inode through q: its pages, its records,
// and its number. Exclusive-epoch callers only (reached through directory
// commits).
func (c *Controller) freeInode(ino uint64, q *persistQ) {
	se := c.shadowGet(ino, nil)
	if se == nil {
		return
	}
	if se.mapping != nil {
		se.mapping.revoke()
	}
	// Reclaim every page the inode owns. The releasing LibFS has zeroed
	// the inode record, so the pages are the ones the kernel verified: the
	// baseline view while the inode is held, else what the shadow's own
	// root and size reach (nobody could write an unheld inode since).
	var freed []uint64
	switch snap := se.snap; {
	case !se.info.Committed:
		// A pending inode owns nothing: its pages are still the app's.
	case snap != nil && snap.file != nil:
		freed = slices.Concat(snap.file.MapPages, snap.file.Blocks)
	case snap != nil:
		freed = slices.Concat([]uint64{se.info.DataRoot}, snap.dir.Pages)
	case se.info.Type == layout.TypeFile:
		freed = slices.Concat(layout.MapChainPages(c.dev, se.inode.DataRoot),
			layout.WalkBlockMap(c.dev, se.inode.DataRoot, layout.BlocksForSize(se.inode.Size)))
	default:
		freed = c.inodePages(ino, se)
	}
	for _, p := range freed {
		if p < uint64(len(c.pages)) && c.casPageOwner(p, ownIno(ino), ownFree) {
			q.pages = append(q.pages, p)
		}
	}
	c.freeRecords(ino, q)
	c.shadowDelete(ino, nil)
	q.inos = append(q.inos, ino)
}

// freeRecords frees ino's shadow record (one line) and its inode record if live.
func (c *Controller) freeRecords(ino uint64, q *persistQ) {
	if _, ok, corrupt := layout.ReadInode(c.dev, c.geo, ino); ok || corrupt {
		layout.FreeInode(c.dev, c.geo, ino)
		q.Flush(layout.InodeOff(c.geo, ino), layout.InodeSize)
	}
	layout.FreeShadow(c.dev, c.geo, ino)
	q.Flush(layout.ShadowOff(c.geo, ino), 2)
}
