package baseline

import (
	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
)

// nova is the NOVA-like discipline: a log-structured kernel file system
// with one operation log per inode and copy-on-write data pages. Every
// operation crosses the syscall gate and takes only per-inode locks, so
// private-directory workloads scale while shared-directory workloads
// serialize on the directory inode — the shape the Trio paper's figures
// show for NOVA.
//
// It follows NOVA's persistence order (a log entry is persisted and
// fenced before the tail advances; data pages are persisted before the
// write entry that references them) but, as a performance baseline, has
// no recovery scan.
type nova struct{ fs *FS }

// log entry types
const (
	leCreate  = uint8(1)
	leLink    = uint8(2) // dentry add (used by rename)
	leUnlink  = uint8(3)
	leWrite   = uint8(4)
	leSetAttr = uint8(5)
)

// Log entry layout (fixed 64 bytes, one cache line, as NOVA does):
//
//	0   1   type
//	1   1   nameLen
//	2   2   (pad)
//	4   4   csum/valid marker
//	8   8   ino (target)
//	16  8   off
//	24  8   len / size
//	32  8   firstPage
//	40  24  name prefix (longer names spill into a side record)
const leSize = 64

// novaLog is an inode's log: a chain of pages from head, the tail at
// byte off of page.
type novaLog struct {
	head, page uint64
	off        int
}

func (*nova) reservedPages() uint64 { return 1 }

func (n *nova) enter() { n.fs.syscall() }

// appendLog persists one entry to in's log (caller holds in.mu): written,
// flushed and fenced before the DRAM tail advances — NOVA's commit
// protocol.
func (n *nova) appendLog(cpu int, in *inode, typ uint8, target uint64, off, length, firstPage uint64, name string) error {
	dev := n.fs.dev
	lg, _ := in.state.(*novaLog)
	if lg == nil {
		lg = &novaLog{}
		in.state = lg
	}
	if lg.page == 0 || lg.off+leSize > layout.LogDataSize {
		p, err := n.fs.alloc.Alloc(cpu)
		if err != nil {
			return fsapi.ErrNoSpace
		}
		// NOVA keeps pre-zeroed log pages on free lists; charging a
		// serial full-page flush here would overstate its create cost
		// (clwb pipelines on real hardware), so only the page is zeroed.
		layout.ZeroPage(dev, p)
		if lg.page != 0 {
			layout.SetNextPage(dev, lg.page, p)
			dev.Persist(int64(lg.page*layout.PageSize)+layout.NextPtrOff, 8)
		} else {
			lg.head = p
		}
		lg.page, lg.off = p, 0
	}
	base := int64(lg.page*layout.PageSize) + int64(lg.off)
	dev.Store8(base+0, typ)
	nameLen := min(len(name), 24)
	dev.Store8(base+1, uint8(nameLen))
	dev.Store32(base+4, 0xC0FFEE)
	dev.Store64(base+8, target)
	dev.Store64(base+16, off)
	dev.Store64(base+24, length)
	dev.Store64(base+32, firstPage)
	if nameLen > 0 {
		dev.Write(base+40, []byte(name[:nameLen]))
	}
	dev.Persist(base, leSize)
	lg.off += leSize
	return nil
}

// commitCreate appends a create entry to the child's log and a link
// entry to the directory's.
func (n *nova) commitCreate(cpu int, d, child *inode, name string) error {
	if err := n.appendLog(cpu, child, leCreate, d.ino, 0, 0, 0, name); err != nil {
		return err
	}
	return n.appendLog(cpu, d, leLink, child.ino, 0, 0, 0, name)
}

func (n *nova) commitRemove(cpu int, d *inode, name string, ino uint64) error {
	return n.appendLog(cpu, d, leUnlink, ino, 0, 0, 0, name)
}

// commitRename: NOVA journals cross-directory renames; here both
// directory logs get entries under the ordered locks.
func (n *nova) commitRename(cpu int, od, nd *inode, oldName, newName string, ino uint64) error {
	if err := n.appendLog(cpu, nd, leLink, ino, 0, 0, 0, newName); err != nil {
		return err
	}
	return n.appendLog(cpu, od, leUnlink, ino, 0, 0, 0, oldName)
}

func (n *nova) commitSize(cpu int, in *inode, size uint64) error {
	return n.appendLog(cpu, in, leSetAttr, in.ino, 0, size, 0, "")
}

// writeBlock is copy-on-write: a new page takes the old block's bytes
// around the written range and is flushed whole; the DRAM index swaps it
// in and the old block is the caller's to free.
func (n *nova) writeBlock(cpu int, in *inode, bi int, bo int64, data []byte) (page, old uint64, err error) {
	dev := n.fs.dev
	np, err := n.fs.alloc.Alloc(cpu)
	if err != nil {
		return 0, 0, fsapi.ErrNoSpace
	}
	base := int64(np * layout.PageSize)
	old = in.blocks[bi]
	if len(data) != layout.PageSize {
		if old != 0 {
			dev.Write(base, dev.Slice(int64(old*layout.PageSize), layout.PageSize))
		} else {
			dev.Zero(base, layout.PageSize)
		}
	}
	dev.Write(base+bo, data)
	dev.Flush(base, layout.PageSize)
	in.blocks[bi] = np
	return np, old, nil
}

// commitWrite appends the write entry that commits the new pages.
func (n *nova) commitWrite(cpu int, in *inode, off int64, length int, first uint64, _ bool) error {
	return n.appendLog(cpu, in, leWrite, in.ino, uint64(off), uint64(length), first, "")
}

func (n *nova) teardownPages(in *inode) []uint64 {
	lg, _ := in.state.(*novaLog)
	if lg == nil {
		return nil
	}
	var pages []uint64
	for p := lg.head; p != 0; p = layout.NextPage(n.fs.dev, p) {
		pages = append(pages, p)
	}
	return pages
}
