package libfs

import (
	"time"

	"arckfs/internal/htable"
	"arckfs/internal/layout"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// Release-time dentry-log compaction.
//
// An unlink tombstones its record in place, and a create fills a dead slot
// of exactly its record length before it appends (appendDentry). Churn
// that keeps one mix of name lengths therefore reuses its slots; churn
// that does not — a burst of creates followed by a burst of unlinks, names
// whose lengths drift — still grows the log. ReleaseInode therefore
// splices the pages that hold no live record out of a mostly-dead log
// before handing the directory back, while it already holds the inode lock
// and every bucket lock (no writer is mid-operation, and lock-free readers
// only ever touch the hash table). The dead slots listed on those pages
// go with them.
//
// Live records never move: a page that holds one stays, and so does each
// tail's last page — the one appends go to — whatever it holds. A
// compaction grants no page and writes no record, so the log is bounded
// by the directory's peak footprint, not by its live entries: survivors
// scattered one to a page keep every one of those pages.
//
// Ordering argument: each maximal run of dead pages is unlinked by one
// 8-byte store — its predecessor's next pointer, or the tail head when the
// run starts the chain — and one fence covers them all. A run's
// predecessor and successor both stay, so the stores are independent: a
// crash image is the old chain with any subset of them applied, every one
// a chain that holds every live record in its old order, and recovery's
// "earlier record wins" rule reads them all the same. Only after the
// fence are the unlinked pages retired; an unlinked page a crash leaves
// behind is one recovery's reachability walk returns to the free list.
//
// The verifier is told nothing: each store dirties the predecessor page or
// the tail-set page, so the next verification reads the new link and diffs
// names against its snapshot as for any other release. Unlinked pages the
// kernel already owns fall out of the page set and are freed by that
// verification; those linked since the kernel last looked are still
// app-granted and are retired to the LibFS pool here.

// CompactMinDeadSlots is the fewest dead record slots worth a compaction:
// the most records one log page can hold, so that many dead slots waste at
// least a page. Together with the "more than twice as many slots as live
// entries" test it keeps a compaction from running where it could unlink
// little, and amortises each splice walk over at least a page of appends.
const CompactMinDeadSlots = layout.LogDataSize / (layout.DentryHeaderSize + 8)

// compactStripe is the allocator stripe compaction retires to: a release
// has no thread, hence no CPU of its own.
const compactStripe = 0

// deadRun is one maximal run of a tail's log pages that hold no live
// record, and the link that skips it.
type deadRun struct {
	ti    int
	pred  uint64 // the page whose next pointer skips the run; 0 = the tail head
	next  uint64 // the page after the run, which stays
	pages int
	slots int // record slots on the run's pages
}

// compactDir splices the dead pages out of mi's dentry log if it is mostly
// dead, reporting the work to sp (nil-safe). The caller holds mi.lock and
// every bucket lock of the directory's hash table.
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

	// A page stays if a live entry's record is on it, if a scan finds a
	// committed record the hash table does not list, or if it is its
	// tail's last page.
	pinned := make(map[uint64]bool)
	ds.ht.EachLocked(func(e *htable.Entry) { pinned[layout.DentryRef(e.Ref()).Page()] = true })
	var runs []deadRun
	gone := make(map[uint64]bool)
	name := make([]byte, layout.MaxName)
	for ti, chain := range fs.dirLogPages(ds) {
		run := deadRun{ti: ti}
		for i, p := range chain {
			n, dead := 0, i < len(chain)-1 && !pinned[p]
			if dead {
				_, corrupt, stop := layout.ScanPage(fs.dev, p, name, func(d layout.RawDentry) bool {
					n++
					return !d.Live
				})
				dead = !corrupt && !stop
			}
			if dead {
				gone[p] = true
				run.pages++
				run.slots += n
				continue
			}
			if run.pages > 0 {
				run.next = p
				runs = append(runs, run)
			}
			run = deadRun{ti: ti, pred: p}
		}
	}
	if len(runs) == 0 {
		return
	}
	// One 8-byte store per run, one fence for them all.
	pb := fs.dev.NewBatch()
	ds.idxMu.Lock()
	for _, r := range runs {
		if r.pred == 0 {
			layout.SetTailHead(fs.dev, ds.tailset, r.ti, r.next)
			pb.Flush(layout.TailHeadOff(ds.tailset, r.ti), 8)
		} else {
			layout.SetNextPage(fs.dev, r.pred, r.next)
			pb.Flush(int64(r.pred*layout.PageSize)+layout.NextPtrOff, 8)
		}
	}
	ds.idxMu.Unlock()
	fs.dev.Killpoint("libfs.compact.swap")
	pb.Barrier()

	// The runs are unreachable. Retire their pages the kernel never
	// adopted; the dead slots on all of them went with them.
	var retire []uint64
	ds.idxMu.Lock()
	keep := ds.unverified[:0]
	for _, p := range ds.unverified {
		if gone[p] {
			retire = append(retire, p)
		} else {
			keep = append(keep, p)
		}
	}
	ds.unverified = keep
	ds.dead.keep(func(s layout.DentryRef) bool { return !gone[s.Page()] })
	ds.idxMu.Unlock()
	fs.retire(compactStripe, retire, 0)

	dropped := 0
	for _, r := range runs {
		tc := &ds.tails[r.ti]
		tc.mu.Lock()
		tc.slots -= r.slots
		tc.mu.Unlock()
		dropped += r.slots
	}
	fs.Stats.DirCompactions.Add(1)
	fs.Stats.DirCompactedSlots.Add(int64(dropped))
	if sp != nil {
		sp.Event(telemetry.SpanEvDirCompact, int64(mi.ino), time.Since(begin).Nanoseconds())
	}
}
