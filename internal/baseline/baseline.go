package baseline

import (
	"fmt"
	"sort"
	"sync"

	"arckfs/internal/costmodel"
	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
	"arckfs/internal/pmalloc"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
)

// discipline is what one archetype supplies to the shared skeleton: where
// it crosses into the kernel, how each metadata change commits, and how
// data reaches the device. Every commit hook runs with the inode locks
// the operation needs already held, so a lock of the discipline's own
// (pmfs's journal, kucofs's trusted thread) nests inside them.
type discipline interface {
	// reservedPages is how many pages format keeps from the allocator.
	reservedPages() uint64
	// enter opens every entry point but Close: a kernel file system
	// charges its crossing here.
	enter()

	// commitCreate makes child's link under name in d durable.
	commitCreate(cpu int, d, child *inode, name string) error
	// commitRemove makes the removal of name (inode ino) from d durable.
	commitRemove(cpu int, d *inode, name string, ino uint64) error
	// commitRename makes the move of ino from od/oldName to nd/newName
	// durable; od and nd may be the same directory.
	commitRename(cpu int, od, nd *inode, oldName, newName string, ino uint64) error
	// commitSize makes a truncate of in to size durable.
	commitSize(cpu int, in *inode, size uint64) error

	// writeBlock stores data at byte bo of in's block bi and flushes it;
	// the caller fences. It returns the page now backing the block and
	// the page it replaced (0 if none), which the caller frees once the
	// write has committed.
	writeBlock(cpu int, in *inode, bi int, bo int64, data []byte) (page, old uint64, err error)
	// commitWrite records a fenced write of n bytes at off whose first
	// block landed in page first; grew says whether it extended the file.
	commitWrite(cpu int, in *inode, off int64, n int, first uint64, grew bool) error

	// teardownPages lists the pages in's discipline state holds, for the
	// allocator to take back when the inode goes.
	teardownPages(in *inode) []uint64
}

// archetypes is the one name → archetype table.
var archetypes = []struct {
	name string
	mk   func(*FS) discipline
}{
	{"nova", func(fs *FS) discipline { return &nova{fs: fs} }},
	{"pmfs", func(fs *FS) discipline { return &pmfs{fs: fs} }},
	{"kucofs", func(fs *FS) discipline { return &kucofs{fs: fs} }},
}

// Names lists the archetypes New accepts.
func Names() []string {
	names := make([]string, len(archetypes))
	for i, a := range archetypes {
		names[i] = a.name
	}
	return names
}

// FS is a mounted baseline file system, shared by all its threads.
type FS struct {
	name  string
	disc  discipline
	dev   *pmem.Device
	cost  *costmodel.Model
	alloc *pmalloc.Allocator

	tel      *telemetry.Set
	syscalls *telemetry.Counter

	imu     sync.Mutex
	inodes  map[uint64]*inode
	nextIno uint64
	root    *inode
}

type inode struct {
	mu       sync.RWMutex
	ino      uint64
	dir      bool
	children map[string]uint64 // directories
	blocks   []uint64          // files; 0 is a hole
	size     uint64
	mtime    uint64
	nlink    uint16
	// state belongs to the discipline (nova's log, pmfs's dentry pages);
	// the skeleton never reads it.
	state any
}

// New formats the named archetype over a fresh device of size bytes.
func New(name string, size int64, cost *costmodel.Model) (*FS, error) {
	for _, a := range archetypes {
		if a.name != name {
			continue
		}
		dev := pmem.New(size, cost)
		fs := &FS{
			name:    name,
			dev:     dev,
			cost:    cost,
			tel:     telemetry.NewSet(),
			inodes:  make(map[uint64]*inode),
			nextIno: 1,
		}
		fs.disc = a.mk(fs)
		fs.alloc = pmalloc.New(layout.Geometry{
			PageCount: uint64(dev.Size()) / layout.PageSize,
			DataStart: fs.disc.reservedPages(),
			InodeCap:  1, // unused; the allocator only needs the page range
		})
		dev.RegisterTelemetry(fs.tel)
		fs.syscalls = fs.tel.Counter("syscalls")
		fs.root = fs.newInode(true)
		return fs, nil
	}
	return nil, fmt.Errorf("baseline: unknown file system %q", name)
}

// Name implements fsapi.FS.
func (fs *FS) Name() string { return fs.name }

// Telemetry returns the instance's counter set (syscalls plus the
// device's persistence counters).
func (fs *FS) Telemetry() *telemetry.Set { return fs.tel }

// syscall charges and counts one kernel crossing.
func (fs *FS) syscall() {
	fs.syscalls.Add(1)
	fs.cost.Syscall()
}

func (fs *FS) newInode(dir bool) *inode {
	in := &inode{dir: dir, nlink: 1}
	if dir {
		in.children = make(map[string]uint64)
		in.nlink = 2
	}
	fs.imu.Lock()
	in.ino = fs.nextIno
	fs.nextIno++
	fs.inodes[in.ino] = in
	fs.imu.Unlock()
	return in
}

func (fs *FS) inode(ino uint64) *inode {
	fs.imu.Lock()
	in := fs.inodes[ino]
	fs.imu.Unlock()
	return in
}

// dropInode forgets in and returns its data blocks and whatever the
// discipline hung on it to the allocator.
func (fs *FS) dropInode(in *inode) {
	fs.imu.Lock()
	delete(fs.inodes, in.ino)
	fs.imu.Unlock()
	var pages []uint64
	for _, b := range in.blocks {
		if b != 0 {
			pages = append(pages, b)
		}
	}
	fs.alloc.Free(append(pages, fs.disc.teardownPages(in)...)...)
}

// resolve walks path to its inode, read-locking each directory briefly.
func (fs *FS) resolve(path string) (*inode, error) {
	cur := fs.root
	for c := fsapi.Walk(path); c.Next(); {
		if !cur.dir {
			return nil, fsapi.ErrNotDir
		}
		cur.mu.RLock()
		childIno, ok := cur.children[c.Name()]
		cur.mu.RUnlock()
		if !ok {
			return nil, fsapi.ErrNotExist
		}
		next := fs.inode(childIno)
		if next == nil {
			return nil, fsapi.ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

func (fs *FS) resolveParent(path string) (*inode, string, error) {
	dir, name := fsapi.SplitPath(path)
	if name == "" || !layout.ValidName(name) {
		if len(name) > layout.MaxName {
			return nil, "", fsapi.ErrNameTooLong
		}
		return nil, "", fsapi.ErrInval
	}
	d, err := fs.resolve(dir)
	if err != nil {
		return nil, "", err
	}
	if !d.dir {
		return nil, "", fsapi.ErrNotDir
	}
	return d, name, nil
}

// Thread implements fsapi.Thread: it carries only the CPU and the fd
// table; all file-system state is shared.
type Thread struct {
	fs  *FS
	cpu int
	fds []*inode
}

// NewThread implements fsapi.FS.
func (fs *FS) NewThread(cpu int) fsapi.Thread { return &Thread{fs: fs, cpu: cpu} }

func (t *Thread) createNode(path string, dir bool) error {
	fs := t.fs
	fs.disc.enter()
	d, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.children[name]; exists {
		return fsapi.ErrExist
	}
	child := fs.newInode(dir)
	if err := fs.disc.commitCreate(t.cpu, d, child, name); err != nil {
		fs.dropInode(child)
		return err
	}
	d.children[name] = child.ino
	return nil
}

// Create implements fsapi.Thread.
func (t *Thread) Create(path string) error { return t.createNode(path, false) }

// Mkdir implements fsapi.Thread.
func (t *Thread) Mkdir(path string) error { return t.createNode(path, true) }

// Open implements fsapi.Thread.
func (t *Thread) Open(path string) (fsapi.FD, error) {
	t.fs.disc.enter()
	in, err := t.fs.resolve(path)
	if err != nil {
		return -1, err
	}
	for i, e := range t.fds {
		if e == nil {
			t.fds[i] = in
			return fsapi.FD(i), nil
		}
	}
	t.fds = append(t.fds, in)
	return fsapi.FD(len(t.fds) - 1), nil
}

// Close implements fsapi.Thread.
func (t *Thread) Close(fd fsapi.FD) error {
	if _, err := t.fdInode(fd); err != nil {
		return err
	}
	t.fds[fd] = nil
	return nil
}

func (t *Thread) fdInode(fd fsapi.FD) (*inode, error) {
	if int(fd) < 0 || int(fd) >= len(t.fds) || t.fds[fd] == nil {
		return nil, fsapi.ErrBadFd
	}
	return t.fds[fd], nil
}

// fdFile opens a data operation on fd at off.
func (t *Thread) fdFile(fd fsapi.FD, off int64) (*inode, error) {
	t.fs.disc.enter()
	in, err := t.fdInode(fd)
	if err != nil {
		return nil, err
	}
	if in.dir {
		return nil, fsapi.ErrIsDir
	}
	if off < 0 {
		return nil, fsapi.ErrInval
	}
	return in, nil
}

// ReadAt implements fsapi.Thread.
func (t *Thread) ReadAt(fd fsapi.FD, p []byte, off int64) (int, error) {
	in, err := t.fdFile(fd, off)
	if err != nil {
		return 0, err
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if uint64(off) >= in.size {
		return 0, nil
	}
	n := len(p)
	if uint64(off)+uint64(n) > in.size {
		n = int(in.size - uint64(off))
	}
	for read := 0; read < n; {
		bi, bo, chunk := blockSpan(off+int64(read), n-read)
		if bi < len(in.blocks) && in.blocks[bi] != 0 {
			t.fs.dev.Read(int64(in.blocks[bi]*layout.PageSize)+bo, p[read:read+chunk])
		} else {
			clear(p[read : read+chunk])
		}
		read += chunk
	}
	return n, nil
}

// blockSpan locates the run of at most n bytes at file offset pos that
// stays inside one block: its block index, offset in the block, length.
func blockSpan(pos int64, n int) (bi int, bo int64, chunk int) {
	bi, bo = int(pos/layout.PageSize), pos%layout.PageSize
	return bi, bo, min(layout.PageSize-int(bo), n)
}

// WriteAt implements fsapi.Thread. The discipline writes each block (in
// place or copy-on-write); one fence orders the data before the commit.
func (t *Thread) WriteAt(fd fsapi.FD, p []byte, off int64) (int, error) {
	in, err := t.fdFile(fd, off)
	if err != nil || len(p) == 0 {
		return 0, err
	}
	fs := t.fs
	in.mu.Lock()
	defer in.mu.Unlock()
	end := uint64(off) + uint64(len(p))
	for need := layout.BlocksForSize(end); len(in.blocks) < need; {
		in.blocks = append(in.blocks, 0)
	}
	written := 0
	var first uint64
	var replaced []uint64
	for written < len(p) {
		bi, bo, chunk := blockSpan(off+int64(written), len(p)-written)
		page, old, err := fs.disc.writeBlock(t.cpu, in, bi, bo, p[written:written+chunk])
		if err != nil {
			return written, err
		}
		if first == 0 {
			first = page
		}
		if old != 0 {
			replaced = append(replaced, old)
		}
		written += chunk
	}
	fs.dev.Fence()
	grew := end > in.size
	if grew {
		in.size = end
	}
	if err := fs.disc.commitWrite(t.cpu, in, off, len(p), first, grew); err != nil {
		return written, err
	}
	in.mtime++
	fs.alloc.Free(replaced...)
	return written, nil
}

// Fsync implements fsapi.Thread: every write already persisted.
func (t *Thread) Fsync(fd fsapi.FD) error {
	t.fs.disc.enter()
	_, err := t.fdInode(fd)
	return err
}

// remove unlinks path, which must name a directory iff wantDir.
func (t *Thread) remove(path string, wantDir bool) error {
	fs := t.fs
	fs.disc.enter()
	d, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	childIno, ok := d.children[name]
	if !ok {
		return fsapi.ErrNotExist
	}
	child := fs.inode(childIno)
	if wantDir {
		if child == nil || !child.dir {
			return fsapi.ErrNotDir
		}
		child.mu.RLock()
		empty := len(child.children) == 0
		child.mu.RUnlock()
		if !empty {
			return fsapi.ErrNotEmpty
		}
	} else if child != nil && child.dir {
		return fsapi.ErrIsDir
	}
	if err := fs.disc.commitRemove(t.cpu, d, name, childIno); err != nil {
		return err
	}
	delete(d.children, name)
	if child != nil {
		fs.dropInode(child)
	}
	return nil
}

// Unlink implements fsapi.Thread.
func (t *Thread) Unlink(path string) error { return t.remove(path, false) }

// Rmdir implements fsapi.Thread.
func (t *Thread) Rmdir(path string) error { return t.remove(path, true) }

// Rename implements fsapi.Thread. The two directories are locked in
// inode-number order, so opposite cross-directory renames cannot
// deadlock.
func (t *Thread) Rename(oldPath, newPath string) error {
	fs := t.fs
	fs.disc.enter()
	od, oldName, err := fs.resolveParent(oldPath)
	if err != nil {
		return err
	}
	nd, newName, err := fs.resolveParent(newPath)
	if err != nil {
		return err
	}
	first, second := od, nd
	if first.ino > second.ino {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	if second != first {
		second.mu.Lock()
		defer second.mu.Unlock()
	}
	childIno, ok := od.children[oldName]
	if !ok {
		return fsapi.ErrNotExist
	}
	if _, exists := nd.children[newName]; exists {
		return fsapi.ErrExist
	}
	if err := fs.disc.commitRename(t.cpu, od, nd, oldName, newName, childIno); err != nil {
		return err
	}
	delete(od.children, oldName)
	nd.children[newName] = childIno
	return nil
}

// Stat implements fsapi.Thread.
func (t *Thread) Stat(path string) (fsapi.Stat, error) {
	t.fs.disc.enter()
	in, err := t.fs.resolve(path)
	if err != nil {
		return fsapi.Stat{}, err
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	size := in.size
	if in.dir {
		size = uint64(len(in.children))
	}
	return fsapi.Stat{Ino: in.ino, Dir: in.dir, Size: size, Nlink: in.nlink, MTime: in.mtime}, nil
}

// Readdir implements fsapi.Thread.
func (t *Thread) Readdir(path string) ([]string, error) {
	t.fs.disc.enter()
	in, err := t.fs.resolve(path)
	if err != nil {
		return nil, err
	}
	if !in.dir {
		return nil, fsapi.ErrNotDir
	}
	in.mu.RLock()
	names := make([]string, 0, len(in.children))
	for n := range in.children {
		names = append(names, n)
	}
	in.mu.RUnlock()
	sort.Strings(names)
	return names, nil
}

var zeroPage [layout.PageSize]byte

// Truncate implements fsapi.Thread.
func (t *Thread) Truncate(path string, size uint64) error {
	fs := t.fs
	fs.disc.enter()
	in, err := fs.resolve(path)
	if err != nil {
		return err
	}
	if in.dir {
		return fsapi.ErrIsDir
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	keep := layout.BlocksForSize(size)
	var freed []uint64
	// A shrink into the middle of a block zeroes the cut-off tail, so a
	// later grow or a write past the gap reads zeros, not the old bytes.
	bo := int64(size % layout.PageSize)
	if bo != 0 && size < in.size && keep <= len(in.blocks) && in.blocks[keep-1] != 0 {
		_, old, err := fs.disc.writeBlock(t.cpu, in, keep-1, bo, zeroPage[bo:])
		if err != nil {
			return err
		}
		fs.dev.Fence()
		if old != 0 {
			freed = append(freed, old)
		}
	}
	for bi := keep; bi < len(in.blocks); bi++ {
		if in.blocks[bi] != 0 {
			freed = append(freed, in.blocks[bi])
		}
	}
	if keep < len(in.blocks) {
		in.blocks = in.blocks[:keep]
	}
	in.size = size
	if err := fs.disc.commitSize(t.cpu, in, size); err != nil {
		return err
	}
	fs.alloc.Free(freed...)
	return nil
}

// writeInPlace is the in-place writeBlock: a hole gets a zeroed block,
// the bytes are stored where they live and only their range is flushed.
// Nothing is replaced.
func (fs *FS) writeInPlace(cpu int, in *inode, bi int, bo int64, data []byte) (page, old uint64, err error) {
	if in.blocks[bi] == 0 {
		b, err := fs.alloc.Alloc(cpu)
		if err != nil {
			return 0, 0, fsapi.ErrNoSpace
		}
		fs.dev.Zero(int64(b*layout.PageSize), layout.PageSize)
		in.blocks[bi] = b
	}
	base := int64(in.blocks[bi]*layout.PageSize) + bo
	fs.dev.Write(base, data)
	fs.dev.Flush(base, int64(len(data)))
	return in.blocks[bi], 0, nil
}
