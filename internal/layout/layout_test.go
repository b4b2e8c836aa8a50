package layout

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"arckfs/internal/pmem"
)

func newDev(t *testing.T, pages int) (*pmem.Device, Geometry) {
	t.Helper()
	dev := pmem.New(int64(pages)*PageSize, nil)
	g, err := Mkfs(dev, 128, DefaultTails)
	if err != nil {
		t.Fatal(err)
	}
	return dev, g
}

func TestMkfsLoadRoundTrip(t *testing.T) {
	dev, g := newDev(t, 64)
	g2, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g {
		t.Fatalf("Load = %+v, want %+v", g2, g)
	}
	root, ok, corrupt := ReadInode(dev, g, RootIno)
	if !ok || corrupt {
		t.Fatalf("root inode ok=%v corrupt=%v", ok, corrupt)
	}
	if root.Type != TypeDir || root.NTails != DefaultTails || root.Parent != RootIno {
		t.Fatalf("root = %+v", root)
	}
	if TailCount(dev, root.DataRoot) != DefaultTails {
		t.Fatalf("tail count = %d", TailCount(dev, root.DataRoot))
	}
}

func TestMkfsErrors(t *testing.T) {
	dev := pmem.New(8*PageSize, nil)
	if _, err := Mkfs(dev, 1, DefaultTails); err == nil {
		t.Fatal("tiny inodeCap accepted")
	}
	if _, err := Mkfs(dev, 16, 0); err == nil {
		t.Fatal("zero tails accepted")
	}
	if _, err := Mkfs(dev, 1<<20, DefaultTails); err == nil {
		t.Fatal("oversized inode table accepted")
	}
}

func TestLoadRejectsUnformatted(t *testing.T) {
	dev := pmem.New(16*PageSize, nil)
	if _, err := Load(dev); err == nil {
		t.Fatal("Load of unformatted device succeeded")
	}
}

func TestLoadRejectsCorruptSuperblock(t *testing.T) {
	dev, _ := newDev(t, 64)
	dev.Store64(16, 999999) // corrupt pageCount without fixing csum
	if _, err := Load(dev); err == nil {
		t.Fatal("corrupt superblock accepted")
	}
}

func TestInodeRoundTrip(t *testing.T) {
	dev, g := newDev(t, 64)
	in := Inode{
		Type: TypeFile, Perm: PermRead | PermWrite, Nlink: 1,
		UID: 1000, GID: 100, Size: 12345, DataRoot: 17, Parent: RootIno,
		MTime: 222,
	}
	WriteInode(dev, g, 5, &in)
	got, ok, corrupt := ReadInode(dev, g, 5)
	if !ok || corrupt {
		t.Fatalf("ok=%v corrupt=%v", ok, corrupt)
	}
	if got != in {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

// TestEncodeInodeIntoReusedBuffer: a record rendered into a buffer that
// still holds another record reads back as the inode, padding zeroed, and
// rendering allocates nothing.
func TestEncodeInodeIntoReusedBuffer(t *testing.T) {
	dev, g := newDev(t, 64)
	in := Inode{
		Type: TypeDir, Perm: PermRead, Nlink: 2, NTails: 4,
		UID: 7, GID: 8, Size: 99, DataRoot: 31, Parent: 3, MTime: 6,
	}
	var rec, clean [InodeSize]byte
	for i := range rec {
		rec[i] = 0xa5
	}
	EncodeInodeInto(&rec, g.FormatID, &in)
	EncodeInodeInto(&clean, g.FormatID, &in)
	if rec != clean {
		t.Fatal("a record rendered over old bytes differs from one rendered into zeroes")
	}
	dev.Write(InodeOff(g, 6), rec[:])
	if got, ok, corrupt := ReadInode(dev, g, 6); !ok || corrupt || got != in {
		t.Fatalf("read back %+v ok=%v corrupt=%v, want %+v", got, ok, corrupt, in)
	}
	if n := testing.AllocsPerRun(100, func() { EncodeInodeInto(&rec, g.FormatID, &in) }); n != 0 {
		t.Fatalf("EncodeInodeInto allocates %v objects", n)
	}
}

// TestInodeRecordIsOneLine: an inode or shadow record is one aligned cache
// line — every field, the shadow extras and the checksum lie in it — so one
// flush or one streaming store persists it and no crash tears it across
// lines. Two neighbouring shadow records round-trip their extras.
func TestInodeRecordIsOneLine(t *testing.T) {
	if InodeSize != pmem.LineSize {
		t.Fatalf("InodeSize = %d, want one line (%d)", InodeSize, pmem.LineSize)
	}
	fields := []struct {
		name      string
		off, size int
	}{
		{"type", inType, 2}, {"perm", inPerm, 2}, {"nlink", inNlink, 2},
		{"ntails", inNTails, 2}, {"uid", inUID, 4}, {"gid", inGID, 4},
		{"size", inSize, 8}, {"root", inRoot, 8}, {"parent", inParent, 8},
		{"mtime", inMTime, 8}, {"childcount", shChildCount, 4}, {"flags", shFlags, 1},
		{"format id", inFormatID, 4}, {"csum", inCsum, 4},
	}
	end := 0
	for _, f := range fields {
		if f.off < end || f.off+f.size > InodeSize {
			t.Fatalf("field %s at [%d,%d) overlaps its predecessor or leaves [0,%d)", f.name, f.off, f.off+f.size, InodeSize)
		}
		end = f.off + f.size
	}
	if inCsum+4 != InodeSize {
		t.Fatalf("checksum at %d does not end the record", inCsum)
	}

	dev, g := newDev(t, 64)
	for _, ino := range []uint64{RootIno, 5, g.InodeCap - 1} {
		if InodeOff(g, ino)%pmem.LineSize != 0 || ShadowOff(g, ino)%pmem.LineSize != 0 {
			t.Fatalf("inode %d's records are not line-aligned", ino)
		}
	}
	in := Inode{Type: TypeDir, Perm: PermRead, Nlink: 3, NTails: 2, Size: 4, DataRoot: 9, Parent: RootIno, MTime: 77}
	exs := map[uint64]ShadowExtra{
		5: {ChildCount: 0xdeadbeef, Committed: true},
		6: {ChildCount: 3, Inaccessible: true},
	}
	for ino, ex := range exs {
		WriteShadow(dev, g, ino, &in, &ex)
	}
	for ino, want := range exs {
		got, ex, ok, corrupt := ReadShadow(dev, g, ino)
		if !ok || corrupt || got != in || ex != want {
			t.Fatalf("shadow %d read back %+v %+v ok=%v corrupt=%v, want %+v %+v", ino, got, ex, ok, corrupt, in, want)
		}
	}
	if off := ShadowOff(g, 5); dev.Load32(off+48) != 0xdeadbeef || dev.Load8(off+52) != shFlagCommitted || dev.Load32(off+56) != g.FormatID {
		t.Fatal("shadow extras are not at offsets 48 and 52, or the format ID not at 56")
	}
}

// TestFormatIDIsDurableBeforeAnyRecord: at every fence of a reformat, a
// crash that keeps every store made so far leaves no record whose ID is
// above the superblock's ID word as the fenced image holds it, so the
// next format takes an ID above every record, however this one was cut.
func TestFormatIDIsDurableBeforeAnyRecord(t *testing.T) {
	dev, g := newDev(t, 64)
	dev.EnableTracking()
	fences := 0
	dev.SetObserver(pmem.OnFence(func() {
		fences++
		all, fenced := dev.CrashImage(pmem.CrashPersistAll), dev.CrashImage(pmem.CrashDropAll)
		word := binary.LittleEndian.Uint32(fenced[sbFormatID:])
		for _, off := range []int64{InodeOff(g, RootIno), ShadowOff(g, RootIno)} {
			if id := binary.LittleEndian.Uint32(all[off+inFormatID:]); id > word {
				t.Fatalf("fence %d: a record at %d carries ID %d over a durable ID word of %d", fences, off, id, word)
			}
		}
	}))
	if _, err := Mkfs(dev, g.InodeCap, DefaultTails); err != nil {
		t.Fatal(err)
	}
	if fences == 0 {
		t.Fatal("the format fenced nothing")
	}
}

// TestLoadRejectsVersion1: an image of the two-line record format, or of
// the one-line format whose records carry no format ID, is refused, not
// misread.
func TestLoadRejectsVersion1(t *testing.T) {
	for _, v := range []uint32{1, 2} {
		dev, _ := newDev(t, 64)
		dev.Store32(sbVersion, v)
		dev.Store32(sbCsum, crc32.Checksum(dev.Slice(0, sbCsum), crcTab))
		if _, err := Load(dev); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Fatalf("Load of a version-%d image: %v", v, err)
		}
	}
}

// TestReformatFreesEveryRecord: every record an earlier format wrote reads
// as free under the next, whether the earlier superblock validates (the
// format then writes no table) or is torn (it zeroes the table pages that
// are not zero): a torn one still holds the last ID a format took, since a
// format stores its ID first. A record that fails its checksum in a table
// the format kept still reads corrupt, and a fresh device always gets ID 1.
func TestReformatFreesEveryRecord(t *testing.T) {
	dev, g := newDev(t, 64)
	if g.FormatID != 1 {
		t.Fatalf("a fresh device's format ID = %d, want 1", g.FormatID)
	}
	in := Inode{Type: TypeFile, Perm: PermRead, Nlink: 1, Parent: RootIno}
	write := func(g Geometry) { // over an earlier format's records but the first time
		for ino := uint64(2); ino < 6; ino++ {
			WriteInode(dev, g, ino, &in)
			WriteShadow(dev, g, ino, &in, &ShadowExtra{Committed: true})
			_, iok, _ := ReadInode(dev, g, ino)
			if _, _, sok, _ := ReadShadow(dev, g, ino); !iok || !sok {
				t.Fatalf("format %d: inode %d's records read back ok=%v, %v", g.FormatID, ino, iok, sok)
			}
		}
	}
	write(g)
	for _, tc := range []struct {
		name    string
		damage  func()
		want    uint32
		cleared bool
	}{
		{"valid superblock", func() {}, 2, false},
		{"torn superblock", func() { dev.Store64(sbPageCount, 1) }, 3, true},
		{"format torn after its ID", func() { dev.Store32(sbFormatID, 7) }, 8, true},
	} {
		WriteInode(dev, g, 9, &in)
		dev.Store64(InodeOff(g, 9)+inSize, 777) // torn: fails its checksum
		tc.damage()
		was := g
		var err error
		if g, err = Mkfs(dev, 128, DefaultTails); err != nil {
			t.Fatal(err)
		}
		if g.FormatID != tc.want {
			t.Fatalf("%s: format ID %d after %d, want %d", tc.name, g.FormatID, was.FormatID, tc.want)
		}
		for ino := uint64(2); ino < 6; ino++ {
			if _, ok, corrupt := ReadInode(dev, g, ino); ok || corrupt {
				t.Fatalf("%s: inode %d of format %d reads ok=%v corrupt=%v, want free", tc.name, ino, was.FormatID, ok, corrupt)
			}
			if _, _, ok, corrupt := ReadShadow(dev, g, ino); ok || corrupt {
				t.Fatalf("%s: shadow %d of format %d reads ok=%v corrupt=%v, want free", tc.name, ino, was.FormatID, ok, corrupt)
			}
		}
		if _, ok, corrupt := ReadInode(dev, g, 9); ok || corrupt == tc.cleared {
			t.Fatalf("%s: a torn record reads ok=%v corrupt=%v, want corrupt=%v", tc.name, ok, corrupt, !tc.cleared)
		}
		if got, ok, _ := ReadInode(dev, g, RootIno); !ok || got.Type != TypeDir {
			t.Fatalf("%s: root after reformat %+v ok=%v", tc.name, got, ok)
		}
		write(g)
	}
	if _, err := Load(dev); err != nil {
		t.Fatal(err)
	}
}

// TestMkfsClearsWhatNoTableHeld: a table page that did not hold the same
// table under a superblock that validates may hold anything, and Mkfs
// zeroes it unless it is zero: on a device of non-zero bytes, and where a
// format moves the shadow table onto the previous format's data pages or
// inode table, which hold committed shadow records forged with the next
// ID. Every record then reads free, none corrupt.
func TestMkfsClearsWhatNoTableHeld(t *testing.T) {
	forge := func(dev *pmem.Device, id uint32, from uint64) {
		g := Geometry{InodeCap: 2, ShadowStart: from, FormatID: id}
		WriteShadow(dev, g, 1, &Inode{Type: TypeFile, Nlink: 1, Parent: RootIno}, &ShadowExtra{Committed: true})
		line := dev.Slice(ShadowOff(g, 1), InodeSize)
		for off := int64(from * PageSize); off < dev.Size(); off += InodeSize {
			dev.Write(off, line)
		}
	}
	for _, tc := range []struct {
		name   string
		setup  func() *pmem.Device
		inodes uint64
	}{
		{"non-zero device", func() *pmem.Device {
			return pmem.Restore([]byte(strings.Repeat("\xa5", 512*PageSize)), nil)
		}, 1024},
		{"shadow table over data", func() *pmem.Device {
			dev, g := newDev(t, 512)
			forge(dev, g.FormatID+1, g.DataStart+1)
			return dev
		}, 1024},
		{"shadow table over the inode table", func() *pmem.Device {
			dev := pmem.New(512*PageSize, nil)
			g, err := Mkfs(dev, 1024, DefaultTails)
			if err != nil {
				t.Fatal(err)
			}
			forge(dev, g.FormatID+1, 3)
			return dev
		}, 128},
	} {
		dev := tc.setup()
		g, err := Mkfs(dev, tc.inodes, DefaultTails)
		if err != nil {
			t.Fatal(err)
		}
		for ino := uint64(2); ino < g.InodeCap; ino++ {
			if _, ok, corrupt := ReadInode(dev, g, ino); ok || corrupt {
				t.Fatalf("%s: inode %d reads ok=%v corrupt=%v, want free", tc.name, ino, ok, corrupt)
			}
			if _, _, ok, corrupt := ReadShadow(dev, g, ino); ok || corrupt {
				t.Fatalf("%s: shadow %d reads ok=%v corrupt=%v, want free", tc.name, ino, ok, corrupt)
			}
		}
	}
}

func TestInodeChecksumDetectsCorruption(t *testing.T) {
	dev, g := newDev(t, 64)
	in := Inode{Type: TypeFile, Perm: PermRead, Nlink: 1}
	WriteInode(dev, g, 5, &in)
	dev.Store64(InodeOff(g, 5)+inSize, 777) // corrupt without re-checksumming
	_, ok, corrupt := ReadInode(dev, g, 5)
	if ok || !corrupt {
		t.Fatalf("ok=%v corrupt=%v, want corruption detected", ok, corrupt)
	}
}

func TestFreeInode(t *testing.T) {
	dev, g := newDev(t, 64)
	WriteInode(dev, g, 7, &Inode{Type: TypeFile, Nlink: 1})
	FreeInode(dev, g, 7)
	_, ok, corrupt := ReadInode(dev, g, 7)
	if ok || corrupt {
		t.Fatalf("freed inode: ok=%v corrupt=%v", ok, corrupt)
	}
}

func TestInodeOffBounds(t *testing.T) {
	_, g := newDev(t, 64)
	for _, ino := range []uint64{0, g.InodeCap} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("InodeOff(%d) did not panic", ino)
				}
			}()
			InodeOff(g, ino)
		}()
	}
}

func TestDentryWriteCommitRead(t *testing.T) {
	dev, g := newDev(t, 64)
	page := g.DataStart + 1
	ZeroPage(dev, page)
	r := MakeDentryRef(page, 0)
	WriteDentryBody(dev, r, 42, "hello.txt")

	// Before commit: not live.
	d, corrupt := ReadDentry(dev, r)
	if d.Live || corrupt {
		t.Fatalf("uncommitted dentry live=%v corrupt=%v", d.Live, corrupt)
	}
	CommitDentry(dev, r, len("hello.txt"))
	d, corrupt = ReadDentry(dev, r)
	if !d.Live || corrupt || d.Ino != 42 || d.Name != "hello.txt" {
		t.Fatalf("dentry = %+v corrupt=%v", d, corrupt)
	}
	if d.RecLen != DentryRecLen(9) {
		t.Fatalf("RecLen = %d", d.RecLen)
	}

	InvalidateDentry(dev, r)
	d, corrupt = ReadDentry(dev, r)
	if d.Live || corrupt {
		t.Fatalf("invalidated dentry live=%v", d.Live)
	}
}

func TestDentryCorruptionDetection(t *testing.T) {
	dev, g := newDev(t, 64)
	page := g.DataStart + 1
	ZeroPage(dev, page)
	r := MakeDentryRef(page, 0)
	name := strings.Repeat("x", 100) // spans multiple cache lines
	WriteDentryBody(dev, r, 7, name)
	CommitDentry(dev, r, len(name))

	// Tear the name tail, as a §4.2 crash would.
	dev.Zero(r.DevOff()+DentryHeaderSize+64, 36)
	if _, corrupt := ReadDentry(dev, r); !corrupt {
		t.Fatal("torn name not detected")
	}
}

func TestDentryRefPacking(t *testing.T) {
	r := MakeDentryRef(123, 456)
	if r.Page() != 123 || r.Off() != 456 {
		t.Fatalf("ref = page %d off %d", r.Page(), r.Off())
	}
	if r.DevOff() != 123*PageSize+456 {
		t.Fatalf("DevOff = %d", r.DevOff())
	}
	if r.MarkerOff() != r.DevOff()+14 {
		t.Fatalf("MarkerOff = %d", r.MarkerOff())
	}
}

func TestScanTailMultiPage(t *testing.T) {
	dev, g := newDev(t, 64)
	p1, p2 := g.DataStart+1, g.DataStart+2
	ZeroPage(dev, p1)
	ZeroPage(dev, p2)

	// Fill p1 nearly full, then link p2 and continue there.
	off := 0
	var want []string
	i := 0
	for {
		name := fmt.Sprintf("file-%04d", i)
		if !DentryFits(off, len(name)) {
			break
		}
		r := MakeDentryRef(p1, off)
		WriteDentryBody(dev, r, uint64(i+10), name)
		CommitDentry(dev, r, len(name))
		want = append(want, name)
		off += DentryRecLen(len(name))
		i++
	}
	SetNextPage(dev, p1, p2)
	r := MakeDentryRef(p2, 0)
	WriteDentryBody(dev, r, 9999, "overflow")
	CommitDentry(dev, r, len("overflow"))
	want = append(want, "overflow")

	var got []string
	lastPage, lastOff, corrupt := ScanTail(dev, p1, func(d RawDentry) bool {
		if d.Live {
			got = append(got, string(d.Name))
		}
		return true
	})
	if corrupt {
		t.Fatal("unexpected corruption")
	}
	if lastPage != p2 || lastOff != DentryRecLen(len("overflow")) {
		t.Fatalf("frontier = (%d,%d)", lastPage, lastOff)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q want %q", i, got[i], want[i])
		}
	}
}

func TestScanTailSkipsDeadAndStops(t *testing.T) {
	dev, g := newDev(t, 64)
	p := g.DataStart + 1
	ZeroPage(dev, p)
	off := 0
	for i := 0; i < 5; i++ {
		r := MakeDentryRef(p, off)
		name := fmt.Sprintf("n%d", i)
		WriteDentryBody(dev, r, uint64(i+1), name)
		CommitDentry(dev, r, len(name))
		if i%2 == 1 {
			InvalidateDentry(dev, r)
		}
		off += DentryRecLen(len(name))
	}
	live, dead := 0, 0
	ScanTail(dev, p, func(d RawDentry) bool {
		if d.Live {
			live++
		} else {
			dead++
		}
		return true
	})
	if live != 3 || dead != 2 {
		t.Fatalf("live=%d dead=%d", live, dead)
	}
	// Early stop.
	n := 0
	ScanTail(dev, p, func(d RawDentry) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestScanTailNameIsACopy: the name a scan hands out is the copy its hash
// was checked on, so a holder that rewrites the record under a verifying
// kernel cannot slip another name past the check.
func TestScanTailNameIsACopy(t *testing.T) {
	dev, g := newDev(t, 64)
	p := g.DataStart + 1
	ZeroPage(dev, p)
	r := MakeDentryRef(p, 0)
	WriteDentryBody(dev, r, 7, "honest")
	CommitDentry(dev, r, len("honest"))
	ScanTail(dev, p, func(d RawDentry) bool {
		dev.Write(r.DevOff()+DentryHeaderSize, []byte("../../"))
		if string(d.Name) != "honest" {
			t.Fatalf("the scanned name follows the device: %q", d.Name)
		}
		return true
	})
}

func TestScanTailTornLength(t *testing.T) {
	dev, g := newDev(t, 64)
	p := g.DataStart + 1
	ZeroPage(dev, p)
	r := MakeDentryRef(p, 0)
	dev.Store16(r.DevOff()+8, 12345) // recLen not multiple of 8, too large
	_, _, corrupt := ScanTail(dev, p, nil)
	if !corrupt {
		t.Fatal("torn recLen not reported")
	}
}

// TestScanTailOffDevicePage: a head or next pointer past the device — a
// lying device's crash image, read by recovery — ends the scan as
// corruption instead of a panic.
func TestScanTailOffDevicePage(t *testing.T) {
	dev, g := newDev(t, 64)
	p := g.DataStart + 1
	ZeroPage(dev, p)
	SetNextPage(dev, p, 0x706f6e6d6c6b6a69) // name bytes read as a page number
	for _, head := range []uint64{p, 64, 1 << 40} {
		if _, _, corrupt := ScanTail(dev, head, nil); !corrupt {
			t.Fatalf("head %#x: a chain leaving the device not reported", head)
		}
	}
}

func TestBlockMapHelpers(t *testing.T) {
	dev, g := newDev(t, 128)
	m1, m2 := g.DataStart+1, g.DataStart+2
	ZeroPage(dev, m1)
	ZeroPage(dev, m2)
	SetNextPage(dev, m1, m2)
	for i := 0; i < MapEntriesPerPage; i++ {
		SetMapEntry(dev, m1, i, uint64(1000+i))
	}
	SetMapEntry(dev, m2, 0, 5000)

	n := MapEntriesPerPage + 1
	blocks := WalkBlockMap(dev, m1, n)
	if len(blocks) != n {
		t.Fatalf("walked %d blocks", len(blocks))
	}
	if blocks[0] != 1000 || blocks[MapEntriesPerPage-1] != uint64(1000+MapEntriesPerPage-1) || blocks[MapEntriesPerPage] != 5000 {
		t.Fatalf("blocks = %d %d %d", blocks[0], blocks[MapEntriesPerPage-1], blocks[MapEntriesPerPage])
	}
	chain := MapChainPages(dev, m1)
	if len(chain) != 2 || chain[0] != m1 || chain[1] != m2 {
		t.Fatalf("chain = %v", chain)
	}
}

func TestBlocksForSize(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, PageSize: 1, PageSize + 1: 2, 10 * PageSize: 10}
	for size, want := range cases {
		if got := BlocksForSize(size); got != want {
			t.Fatalf("BlocksForSize(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestValidName(t *testing.T) {
	good := []string{"a", "hello.txt", strings.Repeat("x", MaxName)}
	bad := []string{"", ".", "..", "a/b", "a\x00b", strings.Repeat("x", MaxName+1)}
	for _, n := range good {
		if !ValidName(n) {
			t.Fatalf("ValidName(%q) = false", n)
		}
	}
	for _, n := range bad {
		if ValidName(n) {
			t.Fatalf("ValidName(%q) = true", n)
		}
	}
}

// Property: inode encode/decode round-trips for arbitrary field values.
func TestQuickInodeRoundTrip(t *testing.T) {
	dev, g := newDev(t, 64)
	f := func(perm, nlink, ntails uint16, uid, gid uint32, size, root, parent, mt uint64) bool {
		in := Inode{
			Type: TypeFile, Perm: perm, Nlink: nlink, NTails: ntails,
			UID: uid, GID: gid, Size: size, DataRoot: root, Parent: parent,
			MTime: mt,
		}
		WriteInode(dev, g, 3, &in)
		got, ok, corrupt := ReadInode(dev, g, 3)
		return ok && !corrupt && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a log of random append/commit/invalidate operations scans back
// to exactly the set of live names.
func TestQuickScanMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := pmem.New(64*PageSize, nil)
		g, err := Mkfs(dev, 16, 1)
		if err != nil {
			return false
		}
		head := g.DataStart + 1
		ZeroPage(dev, head)
		page, off := head, 0
		type rec struct {
			ref  DentryRef
			name string
		}
		var live []rec
		model := map[string]uint64{}
		for i := 0; i < 150; i++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				name := fmt.Sprintf("f%d-%s", i, strings.Repeat("y", rng.Intn(40)))
				if !DentryFits(off, len(name)) {
					np := page + 1 // test arena: pages are sequential
					if np >= g.PageCount {
						break
					}
					ZeroPage(dev, np)
					SetNextPage(dev, page, np)
					page, off = np, 0
				}
				r := MakeDentryRef(page, off)
				WriteDentryBody(dev, r, uint64(i+1), name)
				CommitDentry(dev, r, len(name))
				off += DentryRecLen(len(name))
				live = append(live, rec{r, name})
				model[name] = uint64(i + 1)
			} else {
				k := rng.Intn(len(live))
				InvalidateDentry(dev, live[k].ref)
				delete(model, live[k].name)
				live = append(live[:k], live[k+1:]...)
			}
		}
		got := map[string]uint64{}
		_, _, corrupt := ScanTail(dev, head, func(d RawDentry) bool {
			if d.Live {
				got[string(d.Name)] = d.Ino
			}
			return true
		})
		if corrupt || len(got) != len(model) {
			return false
		}
		for k, v := range model {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
