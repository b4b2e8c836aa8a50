package kernel

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arckfs/internal/layout"
	"arckfs/internal/pmalloc"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
)

// Report summarizes what recovery (or a dry-run check) found on a device.
type Report struct {
	CommittedInodes int
	// CorruptDentries counts committed records whose name hash or length
	// was torn — the §4.2 partial persist signature.
	CorruptDentries int
	// DanglingEntries counts live dentries referencing inodes that were
	// never committed (creations lost to a crash) or whose verified
	// parent is a different directory.
	DanglingEntries int
	// RestoredInodes counts LibFS inode records rebuilt from the shadow
	// table.
	RestoredInodes int
	// OrphanInodes counts committed shadow inodes unreachable from the
	// root, freed by recovery.
	OrphanInodes int
	// LeakedPages reports the size of the rebuilt free pool: every data
	// page not referenced by the surviving tree, including pages leaked
	// by crashes mid-allocation.
	LeakedPages int
	// TrimmedBlocks counts block pointers past their file's size, cleared
	// by recovery: a growing write torn between its map and its size.
	TrimmedBlocks int
}

func (r Report) String() string {
	return fmt.Sprintf("inodes=%d corruptDentries=%d danglingEntries=%d restoredInodes=%d orphans=%d leakedPages=%d trimmedBlocks=%d",
		r.CommittedInodes, r.CorruptDentries, r.DanglingEntries, r.RestoredInodes, r.OrphanInodes, r.LeakedPages, r.TrimmedBlocks)
}

// Clean reports whether nothing needed repair.
func (r Report) Clean() bool {
	return r.CorruptDentries == 0 && r.DanglingEntries == 0 &&
		r.RestoredInodes == 0 && r.OrphanInodes == 0 && r.TrimmedBlocks == 0
}

// recoverWorkers resolves Options.RecoverWorkers to a pool size.
func recoverWorkers(opts Options) int {
	w := opts.RecoverWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelEach runs fn(worker, i) for every i in [0, n) on a bounded
// worker pool. Callers keep results deterministic by writing into
// index-i slots and merging sequentially afterwards.
func parallelEach(workers, n int, fn func(worker, i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Mount recovers a formatted device. It trusts the PM shadow table,
// reconciles every committed inode's LibFS core state against it
// (repairing torn dentries and dropping uncommitted creations), rebuilds
// page ownership, and returns everything unreachable to the allocator.
//
// The inode-table scans (passes 1, 2 and 5) and each reachability
// level's directory reconciliations (pass 3) run on a bounded worker
// pool (Options.RecoverWorkers); per-chunk results merge in index order,
// so the report and the recovered state are identical to a serial run.
//
// When repair is false the device is not modified (fsck dry-run); the
// returned controller is still usable for inspection but repairs that
// would have been persisted are only counted.
func Mount(dev *pmem.Device, opts Options, repair bool) (*Controller, *Report, error) {
	opts.fill()
	g, err := layout.Load(dev)
	if err != nil {
		return nil, nil, err
	}
	opts.InodeCap = g.InodeCap
	c := newController(dev, g, opts)
	rep := &Report{}
	workers := recoverWorkers(opts)
	qs := make([]*persistQ, workers) // one repair queue per worker
	for w := range qs {
		qs[w] = &persistQ{Batch: dev.NewBatch()}
	}

	// endPass persists the pass's repairs (a fence per worker that made
	// any) and reports its duration to the mount span (0-based, in order).
	passBegin := time.Now()
	endPass := func(i int) {
		for _, q := range qs {
			c.persist(q)
		}
		if opts.Span != nil {
			opts.Span.SpanEvent(telemetry.SpanEvRecoveryPass, int64(i),
				time.Since(passBegin).Nanoseconds())
		}
		// Whitebox kill site for crash-during-recovery testing (always on
		// the mounting goroutine — passes end sequentially even when their
		// interior parallelizes, so an observer that panics here unwinds
		// Mount itself).
		dev.Killpoint("kernel.recover.pass")
		passBegin = time.Now()
	}

	// Pass 1: read the shadow table — the trusted ground truth — in
	// contiguous inode chunks. Workers only parse; the merge into the
	// shard maps is sequential, in chunk order.
	type p1ent struct {
		ino uint64
		se  *shadowEnt
	}
	nchunk := workers
	span := (g.InodeCap - 1 + uint64(nchunk) - 1) / uint64(nchunk)
	if span == 0 {
		span = 1
	}
	chunkEnts := make([][]p1ent, nchunk)
	chunkErr := make([]error, nchunk)
	parallelEach(workers, nchunk, func(_, i int) {
		lo := 1 + uint64(i)*span
		hi := lo + span
		if hi > g.InodeCap {
			hi = g.InodeCap
		}
		for ino := lo; ino < hi; ino++ {
			sin, ex, ok, corrupt := layout.ReadShadow(dev, g, ino)
			if corrupt {
				chunkErr[i] = fmt.Errorf("kernel: shadow record %d corrupt; records are assumed to persist whole, device damaged", ino)
				return
			}
			if !ok || !ex.Committed {
				// Pending shadows (crash before the child committed) are
				// dropped: the creation never completed.
				continue
			}
			se := &shadowEnt{
				info:  shadowInfoOf(ino, &sin, ex.ChildCount, true),
				inode: sin,
			}
			if ex.Inaccessible {
				se.inaccessible = true
			}
			chunkEnts[i] = append(chunkEnts[i], p1ent{ino, se})
		}
	})
	for i := 0; i < nchunk; i++ {
		if chunkErr[i] != nil {
			return nil, nil, chunkErr[i]
		}
		for _, e := range chunkEnts[i] {
			c.shardOf(e.ino).m[e.ino] = e.se
		}
	}
	if c.shadowGet(layout.RootIno, nil) == nil {
		return nil, nil, fmt.Errorf("kernel: no committed root shadow")
	}
	endPass(0)

	// Pass 2: restore LibFS inode records that disagree with the shadow
	// (zeroed or torn by a crash mid-create). Each inode's check and
	// repair is independent; per-worker counters sum deterministically.
	inos := c.sortedInos()
	restored := make([]int, workers)
	parallelEach(workers, len(inos), func(w, i int) {
		ino := inos[i]
		se := c.shadowGet(ino, nil)
		in, ok, corrupt := layout.ReadInode(dev, g, ino)
		if ok && !corrupt && in.Type == se.info.Type && in.DataRoot == se.info.DataRoot {
			return
		}
		restored[w]++
		if repair {
			layout.WriteInode(dev, g, ino, &se.inode)
			qs[w].Flush(layout.InodeOff(g, ino), layout.InodeSize)
		}
	})
	for _, n := range restored {
		rep.RestoredInodes += n
	}
	endPass(1)

	// Pass 3: reachability walk from the root, reconciling each
	// directory's dentry log against the shadow table. Directories on
	// the same level are independent (an entry only survives under its
	// shadow-verified parent), so each level fans out on the pool;
	// children and report deltas merge in level order, keeping the walk
	// order — and every repair — identical to a serial BFS.
	reachable := map[uint64]bool{layout.RootIno: true}
	level := []uint64{layout.RootIno}
	for len(level) > 0 {
		levelChildren := make([][]uint64, len(level))
		levelReps := make([]Report, len(level))
		parallelEach(workers, len(level), func(w, i int) {
			se := c.shadowGet(level[i], nil)
			if se.info.Type != layout.TypeDir {
				return
			}
			children := c.reconcileDir(level[i], se, &levelReps[i], repair, qs[w])
			// Recount children after repair; rewrite the shadow if it moved.
			moved := uint32(len(children)) != se.info.ChildCount
			se.info.ChildCount = uint32(len(children))
			if repair && moved {
				c.writeShadow(se, qs[w])
			}
			levelChildren[i] = children
		})
		var next []uint64
		for i := range level {
			rep.CorruptDentries += levelReps[i].CorruptDentries
			rep.DanglingEntries += levelReps[i].DanglingEntries
			for _, child := range levelChildren[i] {
				if !reachable[child] {
					reachable[child] = true
					next = append(next, child)
				}
			}
		}
		level = next
	}
	endPass(2)

	// Pass 4: free unreachable committed inodes (orphans).
	var orphans []uint64
	c.shadowRange(func(ino uint64, se *shadowEnt) {
		if !reachable[ino] {
			orphans = append(orphans, ino)
		}
	})
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, ino := range orphans {
		rep.OrphanInodes++
		if repair {
			c.freeRecords(ino, qs[0])
		}
		c.shadowDelete(ino, nil)
	}
	endPass(3)

	// Pass 5: rebuild page ownership and the allocator from the
	// surviving tree. Workers trim each file to its size and enumerate
	// each inode's pages; the merge — owner words and the used set — is
	// sequential in sorted inode order, so duplicate claims resolve
	// deterministically.
	rep.CommittedInodes = c.shadowCount()
	inos = c.sortedInos()
	inoPageLists := make([][]uint64, len(inos))
	trimmed := make([]int, workers)
	parallelEach(workers, len(inos), func(w, i int) {
		se := c.shadowGet(inos[i], nil)
		if se.info.Type == layout.TypeFile {
			trimmed[w] += c.trimFile(inos[i], se, repair, qs[w])
		}
		inoPageLists[i] = c.inodePages(inos[i], se)
	})
	for _, n := range trimmed {
		rep.TrimmedBlocks += n
	}
	var usedPages []uint64
	for i, ino := range inos {
		for _, p := range inoPageLists[i] {
			c.setPageOwner(p, ownIno(ino))
		}
		usedPages = append(usedPages, inoPageLists[i]...)
	}
	c.alloc = pmalloc.NewExcluding(g, usedPages...)
	// Everything not referenced by the surviving tree returns to the free
	// pool; report how many pages that recovered beyond the tree itself.
	rep.LeakedPages = c.alloc.FreeCount()
	endPass(4)

	// Pass 6: rebuild the inode free list.
	for ino := g.InodeCap - 1; ino >= 2; ino-- {
		if _, used := c.shardOf(ino).m[ino]; !used {
			c.inoFree = append(c.inoFree, ino)
		}
	}
	endPass(5)
	return c, rep, nil
}

// sortedInos lists every shadow entry's inode number in ascending order
// (mount-time callers; no locking discipline needed).
func (c *Controller) sortedInos() []uint64 {
	inos := make([]uint64, 0, c.shadowCount())
	c.shadowRange(func(ino uint64, se *shadowEnt) {
		inos = append(inos, ino)
	})
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	return inos
}

// reconcileDir scans dirIno's dentry log, invalidating corrupt records
// (torn §4.2 commits) and dangling entries through q, and returns the
// surviving child inode numbers.
func (c *Controller) reconcileDir(dirIno uint64, se *shadowEnt, rep *Report, repair bool, q *persistQ) []uint64 {
	var children []uint64
	seen := map[string]bool{}
	seenIno := map[uint64]bool{}
	nt := int(se.info.NTails)
	if se.info.DataRoot == 0 || se.info.DataRoot >= c.geo.PageCount {
		return nil
	}
	for t := 0; t < nt; t++ {
		head := layout.TailHead(c.dev, se.info.DataRoot, t)
		if head == 0 {
			continue
		}
		layout.ScanTail(c.dev, head, func(d layout.RawDentry) bool {
			if !d.Live {
				return true
			}
			drop := false
			rd, corrupt := layout.ReadDentry(c.dev, d.Ref)
			switch {
			case corrupt:
				rep.CorruptDentries++
				drop = true
			case seen[rd.Name]:
				rep.DanglingEntries++
				drop = true
			case seenIno[rd.Ino]:
				// A crash between a rename's new-name commit and its
				// old-name invalidation leaves one inode live under two
				// names (found by crashmc's mixed-ops workload). The
				// rename was never kernel-verified, so either name is a
				// correct outcome: the earlier record in scan order wins
				// and the later duplicate is dropped. A create may fill a
				// dead slot ahead of the old record, so the earlier record
				// can be the rename's new name.
				rep.DanglingEntries++
				drop = true
			default:
				child := c.shadowGet(rd.Ino, nil)
				if child == nil || child.info.Parent != dirIno {
					// Never committed, or verified under another parent.
					rep.DanglingEntries++
					drop = true
				}
			}
			if drop {
				if repair {
					layout.InvalidateDentry(c.dev, d.Ref)
					q.Flush(d.Ref.MarkerOff(), 2)
				}
				return true
			}
			seen[rd.Name] = true
			seenIno[rd.Ino] = true
			children = append(children, rd.Ino)
			return true
		})
	}
	return children
}

// trimFile clears the block pointers of file ino past its recorded size
// and returns how many it found. A growing write fences its map entries
// before its size, so a crash between the two keeps pointers the size
// does not cover; the verifier rejects such a file at its next ownership
// transfer. Recovery rolls the write back instead, and pass 5 returns the
// blocks to the free pool.
func (c *Controller) trimFile(ino uint64, se *shadowEnt, repair bool, q *persistQ) int {
	in, ok, corrupt := layout.ReadInode(c.dev, c.geo, ino)
	if !ok || corrupt || in.DataRoot != se.info.DataRoot {
		return 0 // torn: pass 2 restored it, unless this is a dry run
	}
	need, n := layout.BlocksForSize(in.Size), 0
	for i, page := range layout.MapChainPages(c.dev, in.DataRoot) {
		if page >= c.geo.PageCount {
			break
		}
		for e := max(need-i*layout.MapEntriesPerPage, 0); e < layout.MapEntriesPerPage; e++ {
			if layout.MapEntry(c.dev, page, e) == 0 {
				continue
			}
			n++
			if repair {
				layout.SetMapEntry(c.dev, page, e, 0)
				q.Flush(int64(page*layout.PageSize)+int64(e)*8, 8)
			}
		}
	}
	return n
}

// inodePages lists every page ino's structure references (best effort on
// a reconciled tree).
func (c *Controller) inodePages(ino uint64, se *shadowEnt) []uint64 {
	var pages []uint64
	switch se.info.Type {
	case layout.TypeDir:
		if se.info.DataRoot == 0 || se.info.DataRoot >= c.geo.PageCount {
			return nil
		}
		pages = append(pages, se.info.DataRoot)
		for t := 0; t < int(se.info.NTails); t++ {
			head := layout.TailHead(c.dev, se.info.DataRoot, t)
			for p := head; p != 0 && p < c.geo.PageCount; p = layout.NextPage(c.dev, p) {
				pages = append(pages, p)
				if len(pages) > 1<<20 {
					return pages
				}
			}
		}
	case layout.TypeFile:
		if fv, err := c.ver.ParseFile(ino); err == nil {
			pages = append(pages, fv.MapPages...)
			for _, b := range fv.Blocks {
				if b != 0 {
					pages = append(pages, b)
				}
			}
		} else if se.info.DataRoot != 0 && se.info.DataRoot < c.geo.PageCount {
			pages = append(pages, layout.MapChainPages(c.dev, se.info.DataRoot)...)
		}
	}
	return pages
}

// Fsck runs recovery analysis without modifying the device.
func Fsck(dev *pmem.Device, opts Options) (*Report, error) {
	_, rep, err := Mount(dev, opts, false)
	return rep, err
}
