package kernel

import (
	"fmt"
	"sort"
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

// Mount recovers a formatted device. It trusts the PM shadow table,
// reconciles every committed inode's LibFS core state against it
// (repairing torn dentries and dropping uncommitted creations), rebuilds
// page ownership, and returns everything unreachable to the allocator.
//
// The passes run in order on the calling goroutine, and every repair goes
// through one queue, so a pass that repaired something costs one fence.
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
	q := &persistQ{Batch: dev.NewBatch()}

	// endPass persists the pass's repairs (one fence if it made any) and
	// reports its duration to the mount span (0-based, in order).
	passBegin := time.Now()
	endPass := func(i int) {
		c.persist(q)
		if opts.Span != nil {
			opts.Span.SpanEvent(telemetry.SpanEvRecoveryPass, int64(i),
				time.Since(passBegin).Nanoseconds())
		}
		// Whitebox kill site for crash-during-recovery testing.
		dev.Killpoint("kernel.recover.pass")
		passBegin = time.Now()
	}

	// Pass 1: read the shadow table — the trusted ground truth.
	for ino := uint64(1); ino < g.InodeCap; ino++ {
		sin, ex, ok, corrupt := layout.ReadShadow(dev, g, ino)
		if corrupt {
			return nil, nil, fmt.Errorf("kernel: shadow record %d corrupt; records are assumed to persist whole, device damaged", ino)
		}
		if !ok || !ex.Committed {
			// Pending shadows (crash before the child committed) are
			// dropped: the creation never completed.
			continue
		}
		c.shardOf(ino).m[ino] = &shadowEnt{
			info:         shadowInfoOf(ino, &sin, ex.ChildCount, true),
			inode:        sin,
			inaccessible: ex.Inaccessible,
		}
	}
	if c.shadowGet(layout.RootIno, nil) == nil {
		return nil, nil, fmt.Errorf("kernel: no committed root shadow")
	}
	endPass(0)

	// Pass 2: restore LibFS inode records that disagree with the shadow
	// (zeroed or torn by a crash mid-create).
	for _, ino := range c.sortedInos() {
		se := c.shadowGet(ino, nil)
		in, ok, corrupt := layout.ReadInode(dev, g, ino)
		if ok && !corrupt && in.Type == se.info.Type && in.DataRoot == se.info.DataRoot {
			continue
		}
		rep.RestoredInodes++
		if repair {
			layout.WriteInode(dev, g, ino, &se.inode)
			q.Flush(layout.InodeOff(g, ino), layout.InodeSize)
		}
	}
	endPass(1)

	// Pass 3: breadth-first reachability walk from the root, reconciling
	// each directory's dentry log against the shadow table.
	reachable := map[uint64]bool{layout.RootIno: true}
	for walk := []uint64{layout.RootIno}; len(walk) > 0; walk = walk[1:] {
		se := c.shadowGet(walk[0], nil)
		if se.info.Type != layout.TypeDir {
			continue
		}
		children := c.reconcileDir(walk[0], se, rep, repair, q)
		// Recount children after repair; rewrite the shadow if it moved.
		moved := uint32(len(children)) != se.info.ChildCount
		se.info.ChildCount = uint32(len(children))
		if repair && moved {
			c.writeShadow(se, q)
		}
		for _, child := range children {
			if !reachable[child] {
				reachable[child] = true
				walk = append(walk, child)
			}
		}
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
			c.freeRecords(ino, q)
		}
		c.shadowDelete(ino, nil)
	}
	endPass(3)

	// Pass 5: rebuild page ownership and the allocator from the
	// surviving tree, trimming each file to its size. Inodes go in sorted
	// order, so duplicate claims resolve deterministically.
	rep.CommittedInodes = c.shadowCount()
	var usedPages []uint64
	for _, ino := range c.sortedInos() {
		se := c.shadowGet(ino, nil)
		if se.info.Type == layout.TypeFile {
			rep.TrimmedBlocks += c.trimFile(ino, se, repair, q)
		}
		pages := c.inodePages(ino, se)
		for _, p := range pages {
			c.setPageOwner(p, ownIno(ino))
		}
		usedPages = append(usedPages, pages...)
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
