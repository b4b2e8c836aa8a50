// Package layout defines ArckFS's minimal persistent core state: a
// superblock, an inode table, per-directory multi-tailed dentry logs, and
// per-file block-map chains. Everything else the file system uses
// (directory hash tables, block indexes, append cursors) is per-application
// auxiliary state in DRAM, rebuilt from this core state on acquire.
//
// The package provides offset arithmetic and encode/decode helpers over a
// pmem.Device; it never decides flush or fence placement. Persistence
// ordering is the LibFS's job, because the §4.2 bug of the ArckFS+ paper
// is precisely a wrong ordering and must be expressible.
//
// Allocation state is not persisted: like other log-structured PM file
// systems, recovery rebuilds the free lists by walking the inode table
// and every reachable log and block-map page.
package layout

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"arckfs/internal/htable"
	"arckfs/internal/pmem"
)

const (
	// PageSize is the allocation unit.
	PageSize = pmem.PageSize
	// Magic identifies a formatted device.
	Magic = uint64(0x31464b4352413147) // "G1ARCKF1"
	// Version of the on-PM format.
	Version = 2

	// InodeSize is the on-PM inode record size: one cache line, so a
	// record is persisted by one flush or one streaming store and no
	// crash can tear it across lines.
	InodeSize = pmem.LineSize

	// RootIno is the inode number of the root directory.
	RootIno = 1

	// MaxName is the maximum file name length in bytes.
	MaxName = 255

	// DentryHeaderSize is the fixed prefix of a dentry record.
	DentryHeaderSize = 16

	// LogDataSize is the record area of a log or map page; the final 8
	// bytes hold the next-page pointer.
	LogDataSize = PageSize - 8
	// NextPtrOff is the offset of the next-page pointer within a page.
	NextPtrOff = LogDataSize

	// MapEntriesPerPage is the number of block pointers in one map page.
	MapEntriesPerPage = LogDataSize / 8

	// MaxTails bounds the directory log tail count.
	MaxTails = 64
	// DefaultTails is the tail count for new directories.
	DefaultTails = 4
)

// Inode types.
const (
	TypeFree = uint16(0)
	TypeFile = uint16(1)
	TypeDir  = uint16(2)
)

// Permission bits (a subset of POSIX, owner class only: the Trio access
// model grants or denies an application read/write on an inode).
const (
	PermRead  = uint16(0x4)
	PermWrite = uint16(0x2)
)

// Geometry describes where each region of a formatted device lives, in
// pages.
type Geometry struct {
	PageCount  uint64
	InodeCap   uint64 // number of inode slots
	TableStart uint64 // first inode-table page
	TablePages uint64
	// ShadowStart is the first page of the kernel-owned shadow inode
	// table — the ground truth the verifier compares LibFS inodes
	// against. LibFSes never map it.
	ShadowStart uint64
	ShadowPages uint64
	DataStart   uint64 // first allocatable data page
}

// Superblock field offsets (page 0).
const (
	sbMagic     = 0
	sbVersion   = 8
	sbPageCount = 16
	sbInodeCap  = 24
	sbTableSt   = 32
	sbTablePg   = 40
	sbDataSt    = 48
	sbRootIno   = 56
	sbShadowSt  = 64
	sbShadowPg  = 72
	sbCsum      = 80
)

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// Mkfs formats the device with capacity for inodeCap inodes and returns
// the geometry. It writes the superblock and a root directory inode with
// ntails log tails, persisting everything.
func Mkfs(dev *pmem.Device, inodeCap uint64, ntails int) (Geometry, error) {
	if inodeCap < 2 {
		return Geometry{}, fmt.Errorf("layout: inodeCap %d too small", inodeCap)
	}
	if ntails <= 0 || ntails > MaxTails {
		return Geometry{}, fmt.Errorf("layout: invalid tail count %d", ntails)
	}
	pages := uint64(dev.Size()) / PageSize
	tablePages := (inodeCap*InodeSize + PageSize - 1) / PageSize
	g := Geometry{
		PageCount:   pages,
		InodeCap:    inodeCap,
		TableStart:  1,
		TablePages:  tablePages,
		ShadowStart: 1 + tablePages,
		ShadowPages: tablePages,
		DataStart:   1 + 2*tablePages,
	}
	if g.DataStart+2 > pages {
		return Geometry{}, fmt.Errorf("layout: device too small: %d pages, need > %d", pages, g.DataStart+2)
	}

	// Zero the inode and shadow tables.
	dev.Zero(int64(g.TableStart*PageSize), int64((g.TablePages+g.ShadowPages)*PageSize))

	// Root directory: its tail-set page is the first data page.
	tailset := g.DataStart
	InitTailSet(dev, tailset, ntails)
	root := Inode{
		Type: TypeDir, Perm: PermRead | PermWrite,
		Nlink: 2, DataRoot: tailset, NTails: uint16(ntails), Parent: RootIno,
	}
	WriteInode(dev, g, RootIno, &root)
	WriteShadow(dev, g, RootIno, &root, &ShadowExtra{Committed: true})
	dev.Flush(InodeOff(g, RootIno), InodeSize)
	dev.Flush(ShadowOff(g, RootIno), InodeSize)
	dev.Flush(int64(tailset*PageSize), PageSize)
	dev.Fence()

	// Superblock last, so a formatted magic implies a complete format.
	sb := int64(0)
	dev.Store64(sb+sbMagic, Magic)
	dev.Store32(sb+sbVersion, Version)
	dev.Store64(sb+sbPageCount, pages)
	dev.Store64(sb+sbInodeCap, inodeCap)
	dev.Store64(sb+sbTableSt, g.TableStart)
	dev.Store64(sb+sbTablePg, g.TablePages)
	dev.Store64(sb+sbDataSt, g.DataStart)
	dev.Store64(sb+sbRootIno, RootIno)
	dev.Store64(sb+sbShadowSt, g.ShadowStart)
	dev.Store64(sb+sbShadowPg, g.ShadowPages)
	dev.Store32(sb+sbCsum, crc32.Checksum(dev.Slice(0, sbCsum), crcTab))
	dev.Persist(0, sbCsum+4)
	return g, nil
}

// Load reads and validates the superblock.
func Load(dev *pmem.Device) (Geometry, error) {
	if dev.Load64(sbMagic) != Magic {
		return Geometry{}, fmt.Errorf("layout: bad magic %#x", dev.Load64(sbMagic))
	}
	if v := dev.Load32(sbVersion); v != Version {
		return Geometry{}, fmt.Errorf("layout: unsupported version %d", v)
	}
	if got, want := dev.Load32(sbCsum), crc32.Checksum(dev.Slice(0, sbCsum), crcTab); got != want {
		return Geometry{}, fmt.Errorf("layout: superblock checksum %#x, want %#x", got, want)
	}
	g := Geometry{
		PageCount:   dev.Load64(sbPageCount),
		InodeCap:    dev.Load64(sbInodeCap),
		TableStart:  dev.Load64(sbTableSt),
		TablePages:  dev.Load64(sbTablePg),
		ShadowStart: dev.Load64(sbShadowSt),
		ShadowPages: dev.Load64(sbShadowPg),
		DataStart:   dev.Load64(sbDataSt),
	}
	if g.PageCount*PageSize > uint64(dev.Size()) || g.DataStart >= g.PageCount {
		return Geometry{}, fmt.Errorf("layout: inconsistent geometry %+v", g)
	}
	return g, nil
}

// Inode is the decoded on-PM inode record. The Parent field is the shadow
// parent pointer the §4.1 patch relies on: it is only ever advanced by
// verified commits, so the verifier can tell "renamed away" from
// "deleted".
type Inode struct {
	Type     uint16
	Perm     uint16
	Nlink    uint16
	NTails   uint16 // directories: log tail count
	UID      uint32
	GID      uint32
	Size     uint64
	DataRoot uint64 // file: first map page; dir: tail-set page
	Parent   uint64
	MTime    uint64
}

// Inode record offsets. [48,60) holds the shadow record's extras
// (shadow.go); the inode table's writers leave it zero.
const (
	inType   = 0
	inPerm   = 2
	inNlink  = 4
	inNTails = 6
	inUID    = 8
	inGID    = 12
	inSize   = 16
	inRoot   = 24
	inParent = 32
	inMTime  = 40
	inCsum   = 60 // crc32c over [0,60)
)

// InodeOff returns the device offset of inode ino's record.
func InodeOff(g Geometry, ino uint64) int64 {
	if ino == 0 || ino >= g.InodeCap {
		panic(fmt.Sprintf("layout: inode %d out of range [1,%d)", ino, g.InodeCap))
	}
	return int64(g.TableStart*PageSize) + int64(ino)*InodeSize
}

// WriteInode encodes in at ino's slot, including the checksum. The caller
// is responsible for flushing and fencing.
func WriteInode(dev *pmem.Device, g Geometry, ino uint64, in *Inode) {
	off := InodeOff(g, ino)
	storeInode(dev, off, in)
	dev.Store32(off+inCsum, crc32.Checksum(dev.Slice(off, inCsum), crcTab))
}

// storeInode stores in's fields at off (inode or shadow record), no checksum.
func storeInode(dev *pmem.Device, off int64, in *Inode) {
	dev.Store16(off+inType, in.Type)
	dev.Store16(off+inPerm, in.Perm)
	dev.Store16(off+inNlink, in.Nlink)
	dev.Store16(off+inNTails, in.NTails)
	dev.Store32(off+inUID, in.UID)
	dev.Store32(off+inGID, in.GID)
	dev.Store64(off+inSize, in.Size)
	dev.Store64(off+inRoot, in.DataRoot)
	dev.Store64(off+inParent, in.Parent)
	dev.Store64(off+inMTime, in.MTime)
}

// loadInode decodes the inode or shadow record at off, as ReadInode does.
func loadInode(dev *pmem.Device, off int64) (in Inode, ok, corrupt bool) {
	in = Inode{
		Type:     dev.Load16(off + inType),
		Perm:     dev.Load16(off + inPerm),
		Nlink:    dev.Load16(off + inNlink),
		NTails:   dev.Load16(off + inNTails),
		UID:      dev.Load32(off + inUID),
		GID:      dev.Load32(off + inGID),
		Size:     dev.Load64(off + inSize),
		DataRoot: dev.Load64(off + inRoot),
		Parent:   dev.Load64(off + inParent),
		MTime:    dev.Load64(off + inMTime),
	}
	if in.Type == TypeFree {
		return in, false, false
	}
	if dev.Load32(off+inCsum) != crc32.Checksum(dev.Slice(off, inCsum), crcTab) {
		return in, false, true
	}
	return in, true, false
}

// EncodeInodeInto renders in as a complete InodeSize-byte record — all
// fields, zero padding, checksum — into rec, for callers that store the
// whole record at once with streaming (non-temporal) stores instead of
// field-by-field with a trailing flush. The record is one full cache
// line, so a pmem.Batch can WriteStream it with no clwb at all. The
// caller owns rec and may render into it again once the record is stored
// (the checksum call would move a record returned by value to the heap).
//
// The checksum is computed over the rendered buffer, so unlike WriteInode
// (which checksums whatever the padding bytes on the device happen to
// hold) an encoded record always has zeroed padding; both forms verify
// under ReadInode.
func EncodeInodeInto(rec *[InodeSize]byte, in *Inode) {
	*rec = [InodeSize]byte{}
	binary.LittleEndian.PutUint16(rec[inType:], in.Type)
	binary.LittleEndian.PutUint16(rec[inPerm:], in.Perm)
	binary.LittleEndian.PutUint16(rec[inNlink:], in.Nlink)
	binary.LittleEndian.PutUint16(rec[inNTails:], in.NTails)
	binary.LittleEndian.PutUint32(rec[inUID:], in.UID)
	binary.LittleEndian.PutUint32(rec[inGID:], in.GID)
	binary.LittleEndian.PutUint64(rec[inSize:], in.Size)
	binary.LittleEndian.PutUint64(rec[inRoot:], in.DataRoot)
	binary.LittleEndian.PutUint64(rec[inParent:], in.Parent)
	binary.LittleEndian.PutUint64(rec[inMTime:], in.MTime)
	binary.LittleEndian.PutUint32(rec[inCsum:], crc32.Checksum(rec[:inCsum], crcTab))
}

// ReadInode decodes ino's record. ok is false for a free slot; corrupt is
// true when the record fails its checksum (e.g. a partially persisted
// inode after a crash, §4.2).
func ReadInode(dev *pmem.Device, g Geometry, ino uint64) (in Inode, ok, corrupt bool) {
	return loadInode(dev, InodeOff(g, ino))
}

// FreeInode marks ino's slot free by its type word alone, as FreeShadow
// does. Caller persists.
func FreeInode(dev *pmem.Device, g Geometry, ino uint64) {
	dev.Store16(InodeOff(g, ino)+inType, TypeFree)
}

// --- Directory tail sets -------------------------------------------------

// Tail-set page: ntails u16 at 0, tail head page numbers (u64) at 8+i*8.

// InitTailSet formats page as a tail-set with n empty tails.
func InitTailSet(dev *pmem.Device, page uint64, n int) {
	off := int64(page * PageSize)
	dev.Zero(off, PageSize)
	dev.Store16(off, uint16(n))
}

// SetTailCount writes the tail count of an (already zeroed) tail-set
// page. Caller persists; callers that stream-zero the page with
// non-temporal stores use this instead of InitTailSet to avoid re-zeroing
// through the cache.
func SetTailCount(dev *pmem.Device, page uint64, n int) {
	dev.Store16(int64(page*PageSize), uint16(n))
}

// TailCount reads the tail count of a tail-set page.
func TailCount(dev *pmem.Device, page uint64) int {
	return int(dev.Load16(int64(page * PageSize)))
}

// TailHeadOff returns the device offset of tail i's 8-byte head pointer.
func TailHeadOff(page uint64, i int) int64 {
	return int64(page*PageSize) + 8 + int64(i)*8
}

// TailHead returns tail i's first log page (0 = empty tail).
func TailHead(dev *pmem.Device, page uint64, i int) uint64 {
	return dev.Load64(TailHeadOff(page, i))
}

// SetTailHead links tail i to head. Caller persists.
func SetTailHead(dev *pmem.Device, page uint64, i int, head uint64) {
	dev.Store64(TailHeadOff(page, i), head)
}

// --- Log pages (shared by dentry logs and block maps) --------------------

// NextPage reads a page's next pointer.
func NextPage(dev *pmem.Device, page uint64) uint64 {
	return dev.Load64(int64(page*PageSize) + NextPtrOff)
}

// SetNextPage writes a page's next pointer. Caller persists.
func SetNextPage(dev *pmem.Device, page, next uint64) {
	dev.Store64(int64(page*PageSize)+NextPtrOff, next)
}

// ZeroPage clears a page (new log/map pages must start zeroed so scans
// terminate). Caller persists.
func ZeroPage(dev *pmem.Device, page uint64) {
	dev.Zero(int64(page*PageSize), PageSize)
}

// --- Dentry records -------------------------------------------------------

// Dentry record encoding, 8-byte aligned within a log page's data area:
//
//	off  size  field
//	0    8     ino
//	8    2     recLen (total record length; persisted before commit)
//	10   4     name hash (FNV-1a; lets recovery detect a torn name)
//	14   2     nameLen — THE COMMIT MARKER (paper footnote 2): 0 means
//	           "not yet created or already deleted"; nonzero commits the
//	           record and must equal the name's length.
//	16   n     name bytes
const (
	deIno     = 0
	deRecLen  = 8
	deHash    = 10
	deNameLen = 14
	deName    = DentryHeaderSize
)

// DentryRecLen returns the record length for a name of n bytes.
func DentryRecLen(n int) int {
	return DentryHeaderSize + (n+7)/8*8
}

// DentryFits reports whether a record for a name of n bytes fits at
// data-area offset off.
func DentryFits(off int, n int) bool {
	return off+DentryRecLen(n) <= LogDataSize
}

// DentryRef packs a record's location (page number and in-page offset)
// into one word, the payload the aux hash table stores.
type DentryRef uint64

// MakeDentryRef builds a ref.
func MakeDentryRef(page uint64, off int) DentryRef {
	return DentryRef(page*PageSize + uint64(off))
}

// Page returns the log page number.
func (r DentryRef) Page() uint64 { return uint64(r) / PageSize }

// Off returns the in-page offset.
func (r DentryRef) Off() int { return int(uint64(r) % PageSize) }

// DevOff returns the absolute device offset of the record.
func (r DentryRef) DevOff() int64 { return int64(r) }

// MarkerOff returns the absolute device offset of the record's commit
// marker, for line-granular persist decisions.
func (r DentryRef) MarkerOff() int64 { return int64(r) + deNameLen }

// WriteDentryBody writes everything except the commit marker: ino,
// recLen, hash and the name bytes, leaving nameLen zero (step 1 of the
// paper's §4.4 atomic-commit protocol). Caller persists per protocol.
func WriteDentryBody(dev *pmem.Device, r DentryRef, ino uint64, name string) {
	off := r.DevOff()
	dev.Store64(off+deIno, ino)
	dev.Store16(off+deRecLen, uint16(DentryRecLen(len(name))))
	dev.Store32(off+deHash, htable.Hash(name))
	dev.Store16(off+deNameLen, 0)
	dev.Write(off+deName, []byte(name))
}

// EncodeDentry renders a complete, committed record for (ino, name) into
// buf — zeroed, and at least DentryRecLen(len(name)) bytes — and returns
// the record length. It is for callers that build a whole log page in
// DRAM and stream it into a chain nothing can reach yet (log compaction);
// a record written in place must use the two-step WriteDentryBody /
// CommitDentry protocol instead.
func EncodeDentry(buf []byte, ino uint64, name string) int {
	binary.LittleEndian.PutUint64(buf[deIno:], ino)
	binary.LittleEndian.PutUint16(buf[deRecLen:], uint16(DentryRecLen(len(name))))
	binary.LittleEndian.PutUint32(buf[deHash:], htable.Hash(name))
	binary.LittleEndian.PutUint16(buf[deNameLen:], uint16(len(name)))
	copy(buf[deName:], name)
	return DentryRecLen(len(name))
}

// CommitDentry sets the commit marker (step 2). Caller persists the
// marker's cache line.
func CommitDentry(dev *pmem.Device, r DentryRef, nameLen int) {
	dev.Store16(r.MarkerOff(), uint16(nameLen))
}

// InvalidateDentry clears the commit marker, deleting the entry. Caller
// persists.
func InvalidateDentry(dev *pmem.Device, r DentryRef) {
	dev.Store16(r.MarkerOff(), 0)
}

// Dentry is a decoded record.
type Dentry struct {
	Ref    DentryRef
	Ino    uint64
	Name   string
	Live   bool // commit marker nonzero
	RecLen int
}

// RawDentry is a record as ScanTail decodes it: Name is the scan's own
// buffer, valid until the callback returns, so a scan allocates nothing per
// record. The verifier and a rebuilding LibFS materialise a string only
// for the names they do not already hold.
type RawDentry struct {
	Ref    DentryRef
	Ino    uint64
	Name   []byte
	Live   bool
	RecLen int
}

// readDentry decodes the record at r. The name is copied into buf (MaxName
// bytes) once, and the hash check runs on the copy: whoever races the read
// with a write to the record, the name the caller goes on to validate and
// keep is the name that was checked. corrupt is true when the committed
// marker disagrees with the stored hash or length — the §4.2 partial
// persist signature; Name is nil then.
func readDentry(dev *pmem.Device, r DentryRef, buf []byte) (d RawDentry, corrupt bool) {
	off := r.DevOff()
	d.Ref = r
	d.Ino = dev.Load64(off + deIno)
	d.RecLen = int(dev.Load16(off + deRecLen))
	nameLen := int(dev.Load16(off + deNameLen))
	if nameLen == 0 {
		return d, false
	}
	d.Live = true
	if nameLen > MaxName || DentryRecLen(nameLen) != d.RecLen || d.Ino == 0 {
		return d, true
	}
	dev.Read(off+deName, buf[:nameLen])
	if htable.Hash(buf[:nameLen]) != dev.Load32(off+deHash) {
		return d, true
	}
	d.Name = buf[:nameLen]
	return d, false
}

// ReadDentry decodes the record at r, reporting corruption as readDentry
// does.
func ReadDentry(dev *pmem.Device, r DentryRef) (Dentry, bool) {
	var buf [MaxName]byte
	d, corrupt := readDentry(dev, r, buf[:])
	return Dentry{Ref: d.Ref, Ino: d.Ino, Name: string(d.Name), Live: d.Live, RecLen: d.RecLen}, corrupt
}

// ScanTail walks one tail's log pages from head, invoking fn for every
// record slot (live or dead) until the log's append frontier. It returns
// the tail's frontier (page, offset, and the last page visited) so a
// LibFS can rebuild its append cursor, and whether any committed record
// was corrupt, as is a page off the device. The chain must not loop.
func ScanTail(dev *pmem.Device, head uint64, fn func(RawDentry) bool) (lastPage uint64, lastOff int, corrupt bool) {
	name := make([]byte, MaxName) // every record's Name; the scan's one allocation
	page := head
	for page != 0 {
		if page >= uint64(dev.Size())/PageSize {
			return page, 0, true
		}
		off := 0
		for off+DentryHeaderSize <= LogDataSize {
			r := MakeDentryRef(page, off)
			recLen := int(dev.Load16(r.DevOff() + deRecLen))
			if recLen == 0 {
				// Append frontier of this page; if a next page exists the
				// append cursor moved on and scanning continues there.
				break
			}
			if recLen < DentryHeaderSize || recLen%8 != 0 || off+recLen > LogDataSize {
				// Torn length: stop at the corruption.
				return page, off, true
			}
			d, c := readDentry(dev, r, name)
			if c {
				corrupt = true
			}
			if fn != nil && !fn(d) {
				return page, off + recLen, corrupt
			}
			off += recLen
		}
		next := NextPage(dev, page)
		if next == 0 {
			return page, off, corrupt
		}
		page = next
	}
	return 0, 0, corrupt
}

// --- Block maps -----------------------------------------------------------

// Block-map pages are chains: MapEntriesPerPage u64 block pointers per
// page, next pointer in the page tail. Entry k of a file's map is entry
// k%MapEntriesPerPage of chain page k/MapEntriesPerPage.

// MapEntry reads entry i of the map page.
func MapEntry(dev *pmem.Device, page uint64, i int) uint64 {
	return dev.Load64(int64(page*PageSize) + int64(i)*8)
}

// SetMapEntry writes entry i of the map page. Caller persists.
func SetMapEntry(dev *pmem.Device, page uint64, i int, block uint64) {
	dev.Store64(int64(page*PageSize)+int64(i)*8, block)
}

// WalkBlockMap reads the whole block-pointer array of a file whose map
// chain starts at root, stopping after nblocks entries.
func WalkBlockMap(dev *pmem.Device, root uint64, nblocks int) []uint64 {
	blocks := make([]uint64, 0, nblocks)
	page := root
	for page != 0 && len(blocks) < nblocks {
		for i := 0; i < MapEntriesPerPage && len(blocks) < nblocks; i++ {
			blocks = append(blocks, MapEntry(dev, page, i))
		}
		page = NextPage(dev, page)
	}
	return blocks
}

// MapChainPages returns the page numbers of the map chain itself.
func MapChainPages(dev *pmem.Device, root uint64) []uint64 {
	var pages []uint64
	for page := root; page != 0; page = NextPage(dev, page) {
		pages = append(pages, page)
		if len(pages) > 1<<20 {
			// Defensive bound against cyclic corruption.
			return pages
		}
	}
	return pages
}

// BlocksForSize returns how many data blocks a file of size bytes uses.
func BlocksForSize(size uint64) int {
	return int((size + PageSize - 1) / PageSize)
}

// ValidName reports whether a file name (a string, or the bytes of a
// record) is acceptable.
func ValidName[S string | []byte](name S) bool {
	n := len(name)
	if n == 0 || n > MaxName || name[0] == '.' && (n == 1 || n == 2 && name[1] == '.') {
		return false
	}
	for i := 0; i < n; i++ {
		if name[i] == '/' || name[i] == 0 {
			return false
		}
	}
	return true
}
