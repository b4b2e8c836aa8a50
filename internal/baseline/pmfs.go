package baseline

import (
	"sync"

	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
)

// pmfs is the PMFS-like discipline: an in-place-update kernel file
// system whose metadata changes are made atomic by one undo journal under
// one global lock. It is the journaled, poorly-scaling archetype: every
// create, unlink, rename or size change serializes on the journal even
// in disjoint directories, while data reads and writes take only
// per-file locks.
type pmfs struct {
	fs *FS
	// jmu is the global journal lock; jOff is the ring's write cursor.
	jmu  sync.Mutex
	jOff int64
}

// Journal geometry: a ring of 64-byte undo records in pages 0..jPages.
const (
	jPages   = 16
	jRecSize = 64
)

// dentrySize is one slot of a directory's in-place dentry array.
const dentrySize = 32

// pmfsDir is a directory's state: the pages backing its dentry array.
type pmfsDir struct{ pages []uint64 }

func (*pmfs) reservedPages() uint64 { return jPages + 1 }

func (p *pmfs) enter() { p.fs.syscall() }

// journaled runs fn under the global journal lock, bracketed by PMFS's
// undo-journal pattern: journal nrec undo records (flush each, one
// fence), apply the in-place updates (fn persists them), commit the
// journal (flush+fence).
func (p *pmfs) journaled(nrec int, fn func() error) error {
	dev := p.fs.dev
	p.jmu.Lock()
	defer p.jmu.Unlock()
	for i := 0; i < nrec; i++ {
		base := p.nextRecord()
		dev.Store64(base, 0xDEAD0001)
		dev.Store64(base+8, uint64(i))
		dev.Flush(base, jRecSize)
	}
	dev.Fence()
	if fn != nil {
		if err := fn(); err != nil {
			return err
		}
	}
	base := p.nextRecord()
	dev.Store64(base, 0xC0DE0002)
	dev.Persist(base, jRecSize)
	return nil
}

// nextRecord returns the cursor and advances it around the ring.
func (p *pmfs) nextRecord() int64 {
	base := p.jOff
	p.jOff += jRecSize
	if p.jOff+jRecSize > jPages*layout.PageSize {
		p.jOff = 0
	}
	return base
}

// persistDentry writes (ino, name) into the next slot of d's in-place
// dentry array, growing it as needed, and persists the slot — the
// metadata write the journal protects.
func (p *pmfs) persistDentry(d *inode, name string, ino uint64) error {
	dev := p.fs.dev
	dd, _ := d.state.(*pmfsDir)
	if dd == nil {
		dd = &pmfsDir{}
		d.state = dd
	}
	const perPage = layout.PageSize / dentrySize
	for len(dd.pages)*perPage < len(d.children)+1 {
		pg, err := p.fs.alloc.Alloc(0)
		if err != nil {
			return fsapi.ErrNoSpace
		}
		dd.pages = append(dd.pages, pg)
	}
	slot := len(d.children)
	base := int64(dd.pages[slot/perPage]*layout.PageSize) + int64(slot%perPage*dentrySize)
	dev.Store64(base, ino)
	dev.Write(base+8, []byte(name[:min(len(name), 24)]))
	dev.Persist(base, dentrySize)
	return nil
}

func (p *pmfs) commitCreate(_ int, d, child *inode, name string) error {
	return p.journaled(2, func() error { return p.persistDentry(d, name, child.ino) })
}

func (p *pmfs) commitRemove(int, *inode, string, uint64) error { return p.journaled(2, nil) }

func (p *pmfs) commitRename(_ int, _, nd *inode, _, newName string, ino uint64) error {
	return p.journaled(3, func() error { return p.persistDentry(nd, newName, ino) })
}

func (p *pmfs) commitSize(int, *inode, uint64) error { return p.journaled(1, nil) }

func (p *pmfs) writeBlock(cpu int, in *inode, bi int, bo int64, data []byte) (page, old uint64, err error) {
	return p.fs.writeInPlace(cpu, in, bi, bo, data)
}

// commitWrite journals the size update; an overwrite changes no metadata.
func (p *pmfs) commitWrite(_ int, _ *inode, _ int64, _ int, _ uint64, grew bool) error {
	if !grew {
		return nil
	}
	return p.journaled(1, nil)
}

func (*pmfs) teardownPages(in *inode) []uint64 {
	dd, _ := in.state.(*pmfsDir)
	if dd == nil {
		return nil
	}
	return dd.pages
}
