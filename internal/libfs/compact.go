package libfs

import (
	"encoding/binary"
	"sort"
	"time"

	"arckfs/internal/htable"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// Release-time dentry-log compaction.
//
// An unlink tombstones its record in place, and a create fills a dead slot
// of exactly its record length before it appends (appendDentry). Churn
// that keeps one mix of name lengths therefore reuses its slots; churn
// that does not — a burst of creates followed by a burst of unlinks, names
// whose lengths drift — still grows the log, and the kernel's verification
// cost at every ownership transfer is proportional to the record slots it
// must parse, not to the entries that exist. ReleaseInode therefore
// rewrites a mostly-dead log before handing the directory back, while it
// already holds the inode lock and every bucket lock (no writer is
// mid-operation, and lock-free readers only ever touch the hash table).
// The dead slots listed on the pages it retires are dropped with them.
//
// Each tail keeps its last page — the one appends go to — in place, and
// has the live records of every page before it copied into fresh pages
// that link to it. The append cursor therefore never moves, no partly
// filled page is thrown away, and what stays uncompacted is bounded by
// one page per tail.
//
// Ordering argument, per tail: (1) the live records are written, complete
// with commit markers, into freshly granted pages no scan can reach, and
// the whole new chain — records, zeroed frontier, next pointers — is
// fenced durable; (2) one 8-byte tail-head store publishes it and is
// fenced; (3) only then do the old pages go back to the allocator. A
// crash before (2) persists leaves the old chain, after it the new one;
// both hold the same live set, and an unreachable chain is just granted
// pages that recovery's reachability walk returns to the free list.
//
// The verifier is told nothing: it re-parses the compacted log in full and
// diffs names against its snapshot as for any other release. Old pages
// the kernel already owns simply fall out of the page set and are freed by
// that verification; old pages linked since the kernel last looked are
// still app-granted and are retired to the LibFS pool here.

// CompactMinDeadSlots is the fewest dead record slots worth a compaction:
// the most records one log page can hold, so that many dead slots waste at
// least a page. Together with the "more than twice as many slots as live
// entries" test it keeps a directory's log O(live entries) — plus each
// tail's append page — while amortising each rewrite over at least as
// many appends as it copies.
const CompactMinDeadSlots = layout.LogDataSize / (layout.DentryHeaderSize + 8)

// compactStripe is the allocator stripe compaction draws from and retires
// to: a release has no thread, hence no CPU of its own.
const compactStripe = 0

// tailRewrite is the compaction of one tail: fresh pages holding the
// live records of every old page but the last, linked to that last page.
type tailRewrite struct {
	ti    int
	last  uint64             // the tail's append page, kept in place
	slots int                // record slots the tail holds afterwards
	dead  int                // record slots dropped; 0 = chain left as it is
	ents  []*htable.Entry    // live entries outside last, in log order
	refs  []layout.DentryRef // ents[i]'s record in the new chain
	pages []uint64
}

// compactDir rewrites mi's dentry log if it is mostly dead, reporting the
// work to sp (nil-safe). The caller holds mi.lock and every bucket lock
// of the directory's hash table. Best effort: if pages cannot be granted
// the log stays as it is.
func (fs *FS) compactDir(mi *minode, sp *span.Span) {
	if fs.opts.Bugs.Has(BugAuxCoreRace) {
		// §4.4 as shipped writes core records outside the bucket locks, so
		// holding them all does not quiesce the log.
		return
	}
	ds := mi.dir.Load()
	live, slots := ds.ht.Len(), 0
	for i := range ds.tails {
		slots += ds.tails[i].slots
	}
	if slots <= 2*live || slots-live < CompactMinDeadSlots {
		return
	}
	if fs.checkMapped(mi) != nil {
		return // revoked underneath us: the log is no longer ours to write
	}
	var begin time.Time
	if sp != nil {
		begin = time.Now()
	}

	// Group the live entries that will move by tail. They are copied in
	// log order, so the rewrite is a function of the log and not of
	// hash-table layout, and "the earlier record" means after a compaction
	// what it meant before.
	type pagePos struct {
		r   *tailRewrite // the rewrite of the page's tail
		seq int          // the page's position in its chain
	}
	byTail := make([]tailRewrite, len(ds.tails))
	moving := make(map[uint64]pagePos) // every old page but the last of each chain
	for ti, chain := range fs.dirLogPages(ds) {
		if n := len(chain); n > 1 {
			byTail[ti].ti, byTail[ti].last = ti, chain[n-1]
			for i, p := range chain[:n-1] {
				moving[p] = pagePos{&byTail[ti], i}
			}
		}
	}
	ds.ht.EachLocked(func(e *htable.Entry) {
		if r := moving[layout.DentryRef(e.Ref()).Page()].r; r != nil {
			r.ents = append(r.ents, e)
		}
	})
	// Only a tail with a dead slot before its last page is rewritten.
	var rw []*tailRewrite
	dropped := 0
	for ti := range byTail {
		r := &byTail[ti]
		if r.last == 0 {
			continue
		}
		layout.ScanTail(fs.dev, r.last, func(layout.RawDentry) bool { r.slots++; return true })
		r.slots += len(r.ents)
		if r.dead = ds.tails[ti].slots - r.slots; r.dead > 0 {
			rw = append(rw, r)
			dropped += r.dead
		}
	}
	if len(rw) == 0 {
		return
	}
	if h := fs.opts.Hooks.DirCompaction; h != nil {
		h(true)
		defer h(false)
	}

	// (1) Stream the new chains and fence them durable.
	pb := fs.dev.NewBatch()
	var fresh []uint64
	for _, r := range rw {
		sort.Slice(r.ents, func(i, j int) bool {
			a, b := layout.DentryRef(r.ents[i].Ref()), layout.DentryRef(r.ents[j].Ref())
			if a.Page() != b.Page() {
				return moving[a.Page()].seq < moving[b.Page()].seq
			}
			return a.Off() < b.Off()
		})
		err := fs.writeChain(pb, r)
		fresh = append(fresh, r.pages...)
		if err != nil {
			// writeChain only streams: pb has nothing queued to drain.
			//arcklint:allow retirecheck these pages were granted above and never linked: no reader, and no scan, can have reached them
			fs.recyclePages(compactStripe, fresh)
			return
		}
	}
	pb.Barrier()

	// (2) Publish: one 8-byte head store per rewritten tail, one fence.
	pmem.Killpoint("libfs.compact.swap")
	ds.idxMu.Lock()
	for _, r := range rw {
		head := r.last
		if len(r.pages) > 0 {
			head = r.pages[0]
		}
		layout.SetTailHead(fs.dev, ds.tailset, r.ti, head)
		pb.Flush(layout.TailHeadOff(ds.tailset, r.ti), 8)
	}
	pb.Barrier()

	// (3) The old pages are unreachable. Retire those the kernel never
	// adopted; the new pages are app-granted until it verifies them.
	var retire []uint64
	keep := ds.unverified[:0]
	for _, p := range ds.unverified {
		if r := moving[p].r; r != nil && r.dead > 0 {
			retire = append(retire, p)
		} else {
			keep = append(keep, p)
		}
	}
	ds.unverified = append(keep, fresh...)
	// The dead slots of the retired pages went with them.
	ds.dead.keep(func(s layout.DentryRef) bool {
		r := moving[s.Page()].r
		return r == nil || r.dead == 0
	})
	ds.idxMu.Unlock()
	fs.retire(compactStripe, retire, 0)

	// Repoint the retained auxiliary state. Lock-free lookups may load a
	// ref while it is rewritten (hence the atomic store); the only code
	// that dereferences one is a writer, and writers are locked out.
	for _, r := range rw {
		for i, e := range r.ents {
			e.SetRef(uint64(r.refs[i]))
		}
		tc := &ds.tails[r.ti]
		tc.mu.Lock()
		tc.slots = r.slots
		tc.mu.Unlock()
	}

	fs.Stats.DirCompactions.Add(1)
	fs.Stats.DirCompactedSlots.Add(int64(dropped))
	if sp != nil {
		sp.Event(telemetry.SpanEvDirCompact, int64(mi.ino), time.Since(begin).Nanoseconds())
	}
}

// writeChain packs r.ents into freshly granted pages and streams each
// page image whole — records with their commit markers set, a zeroed
// frontier, the next pointer, the final one to r.last — filling in
// r.pages and r.refs. Nothing can reach the pages yet, so the two-step
// body/marker protocol has nothing to order against; the caller's Barrier
// makes the chain durable before it is linked. On error r.pages still
// lists every page taken.
func (fs *FS) writeChain(pb *pmem.Batch, r *tailRewrite) error {
	buf := make([]byte, layout.PageSize)
	stream := func(next uint64) {
		binary.LittleEndian.PutUint64(buf[layout.NextPtrOff:], next)
		pb.WriteStream(int64(r.pages[len(r.pages)-1]*layout.PageSize), buf)
		clear(buf)
	}
	off := layout.LogDataSize // forces the first record onto a first page
	for _, e := range r.ents {
		if !layout.DentryFits(off, len(e.Name())) {
			p, err := fs.allocPage(nil, compactStripe)
			if err != nil {
				return err
			}
			if len(r.pages) > 0 {
				stream(p)
			}
			r.pages = append(r.pages, p)
			off = 0
		}
		r.refs = append(r.refs, layout.MakeDentryRef(r.pages[len(r.pages)-1], off))
		off += layout.EncodeDentry(buf[off:], e.Ino, e.Name())
	}
	if len(r.pages) > 0 {
		stream(r.last)
	}
	return nil
}
