package pmem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicStoreLoad(t *testing.T) {
	d := New(PageSize, nil)
	d.Store64(0, 0xdeadbeefcafef00d)
	if got := d.Load64(0); got != 0xdeadbeefcafef00d {
		t.Fatalf("Load64 = %#x", got)
	}
	d.Store32(8, 0x01020304)
	if got := d.Load32(8); got != 0x01020304 {
		t.Fatalf("Load32 = %#x", got)
	}
	d.Store16(12, 0xbeef)
	if got := d.Load16(12); got != 0xbeef {
		t.Fatalf("Load16 = %#x", got)
	}
	d.Store8(14, 0x7f)
	if got := d.Load8(14); got != 0x7f {
		t.Fatalf("Load8 = %#x", got)
	}
	p := []byte("hello, pmem")
	d.Write(100, p)
	q := make([]byte, len(p))
	d.Read(100, q)
	if !bytes.Equal(p, q) {
		t.Fatalf("Read = %q", q)
	}
	if got := d.Slice(100, int64(len(p))); !bytes.Equal(got, p) {
		t.Fatalf("Slice = %q", got)
	}
}

func TestSizeRoundsToPage(t *testing.T) {
	d := New(1, nil)
	if d.Size() != PageSize {
		t.Fatalf("Size = %d", d.Size())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := New(PageSize, nil)
	for _, f := range []func(){
		func() { d.Load64(PageSize - 4) },
		func() { d.Store8(-1, 0) },
		func() { d.Write(PageSize-2, []byte("abcd")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestZero(t *testing.T) {
	d := New(PageSize, nil)
	d.Write(10, []byte{1, 2, 3, 4, 5})
	d.Zero(11, 3)
	want := []byte{1, 0, 0, 0, 5}
	got := make([]byte, 5)
	d.Read(10, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("after Zero: %v", got)
	}
}

func TestStatsCounting(t *testing.T) {
	d := New(PageSize, nil)
	d.Store64(0, 1)
	d.Write(64, make([]byte, 130)) // spans 3 lines
	d.Flush(64, 130)
	d.Fence()
	if got := d.Stats.Flushes.Load(); got != 3 {
		t.Fatalf("Flushes = %d, want 3", got)
	}
	if got := d.Stats.Fences.Load(); got != 1 {
		t.Fatalf("Fences = %d", got)
	}
	if got := d.Stats.Bytes.Load(); got != 138 {
		t.Fatalf("Bytes = %d", got)
	}
}

func TestFencedContentIsDurable(t *testing.T) {
	d := New(PageSize, nil)
	d.EnableTracking()
	d.Store64(0, 42)
	d.Persist(0, 8)
	d.Store64(128, 99) // dirty, never flushed
	img := d.CrashImage(CrashDropAll)
	if got := binary.LittleEndian.Uint64(img[0:]); got != 42 {
		t.Fatalf("fenced value lost: %d", got)
	}
	if got := binary.LittleEndian.Uint64(img[128:]); got != 0 {
		t.Fatalf("unflushed value persisted under DropAll: %d", got)
	}
}

func TestFlushWithoutFenceMayDrop(t *testing.T) {
	d := New(PageSize, nil)
	d.EnableTracking()
	d.Store64(0, 42)
	d.Flush(0, 8) // no fence
	img := d.CrashImage(CrashDropAll)
	if got := binary.LittleEndian.Uint64(img[0:]); got != 0 {
		t.Fatalf("flushed-but-not-fenced line survived DropAll: %d", got)
	}
	img = d.CrashImage(CrashPersistAll)
	if got := binary.LittleEndian.Uint64(img[0:]); got != 42 {
		t.Fatalf("PersistAll lost value: %d", got)
	}
}

// TestMissingFenceReordering is the §4.2 hardware scenario in miniature:
// write line A (payload), write line B (commit marker), flush both, no
// fence between them — a crash may persist B without A. With a fence
// between A's flush and B's store, that crash state is impossible.
func TestMissingFenceReordering(t *testing.T) {
	const lineA, lineB = 0, 64

	// Buggy sequence: no ordering between the two lines.
	d := New(PageSize, nil)
	d.EnableTracking()
	d.Store64(lineA, 0x1111)
	d.Store64(lineB, 0x2222)
	d.Flush(lineA, 8)
	d.Flush(lineB, 8)
	img := d.CrashImage(CrashKeepLines(lineB))
	if binary.LittleEndian.Uint64(img[lineB:]) != 0x2222 {
		t.Fatalf("adversarial crash should persist line B")
	}
	if binary.LittleEndian.Uint64(img[lineA:]) != 0 {
		t.Fatalf("adversarial crash should drop line A")
	}

	// Fixed sequence: fence after A's flush.
	d2 := New(PageSize, nil)
	d2.EnableTracking()
	d2.Store64(lineA, 0x1111)
	d2.Flush(lineA, 8)
	d2.Fence()
	d2.Store64(lineB, 0x2222)
	d2.Flush(lineB, 8)
	img2 := d2.CrashImage(CrashKeepLines(lineB))
	if binary.LittleEndian.Uint64(img2[lineA:]) != 0x1111 {
		t.Fatalf("fence did not make line A durable before B")
	}
}

// TestSameLinePrefixOrdering verifies that a crash can only persist a
// prefix of one line's store history, never a later store without an
// earlier one.
func TestSameLinePrefixOrdering(t *testing.T) {
	d := New(PageSize, nil)
	d.EnableTracking()
	d.Store64(0, 1)  // version 1
	d.Store64(8, 2)  // version 2 (same line)
	d.Store64(16, 3) // version 3 (same line)

	for k := 0; k <= 3; k++ {
		k := k
		img := d.CrashImage(func(_ int64, versions int) int {
			if versions != 3 {
				t.Fatalf("versions = %d, want 3", versions)
			}
			return k
		})
		vals := []uint64{
			binary.LittleEndian.Uint64(img[0:]),
			binary.LittleEndian.Uint64(img[8:]),
			binary.LittleEndian.Uint64(img[16:]),
		}
		want := [][]uint64{
			{0, 0, 0},
			{1, 0, 0},
			{1, 2, 0},
			{1, 2, 3},
		}[k]
		for i := range vals {
			if vals[i] != want[i] {
				t.Fatalf("prefix %d: got %v want %v", k, vals, want)
			}
		}
	}
}

func TestPartialFenceKeepsRemainder(t *testing.T) {
	d := New(PageSize, nil)
	d.EnableTracking()
	d.Store64(0, 1)
	d.Flush(0, 8)
	d.Store64(0, 2) // after the flush; not covered by it
	d.Fence()
	// The fence persisted version 1 only.
	img := d.CrashImage(CrashDropAll)
	if got := binary.LittleEndian.Uint64(img[0:]); got != 1 {
		t.Fatalf("fence persisted wrong version: %d", got)
	}
	// The second store is still pending.
	img = d.CrashImage(CrashPersistAll)
	if got := binary.LittleEndian.Uint64(img[0:]); got != 2 {
		t.Fatalf("pending version lost: %d", got)
	}
	// And a further flush+fence persists it for sure.
	d.Persist(0, 8)
	img = d.CrashImage(CrashDropAll)
	if got := binary.LittleEndian.Uint64(img[0:]); got != 2 {
		t.Fatalf("second persist ineffective: %d", got)
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	d := New(2*PageSize, nil)
	d.EnableTracking()
	d.Write(500, []byte("durable"))
	d.Persist(500, 7)
	img := d.CrashImage(CrashDropAll)
	r := Restore(img, nil)
	got := make([]byte, 7)
	r.Read(500, got)
	if string(got) != "durable" {
		t.Fatalf("Restore lost data: %q", got)
	}
	if r.Tracking() {
		t.Fatal("restored device should not be tracking")
	}
}

func TestCrashRandomDeterministic(t *testing.T) {
	mk := func() *Device {
		d := New(PageSize, nil)
		d.EnableTracking()
		for i := int64(0); i < 16; i++ {
			d.Store64(i*LineSize, uint64(i+1))
		}
		return d
	}
	a := mk().CrashImage(CrashRandom(7))
	b := mk().CrashImage(CrashRandom(7))
	if !bytes.Equal(a, b) {
		t.Fatal("CrashRandom with same seed differs")
	}
}

func TestDirtyLines(t *testing.T) {
	d := New(PageSize, nil)
	d.EnableTracking()
	d.Store64(0, 1)
	d.Store64(200, 2)
	lines := d.DirtyLines()
	if len(lines) != 2 {
		t.Fatalf("DirtyLines = %v", lines)
	}
	d.Persist(0, PageSize)
	if got := d.DirtyLines(); len(got) != 0 {
		t.Fatalf("after persist, DirtyLines = %v", got)
	}
}

func TestTrackingDisableStopsHistory(t *testing.T) {
	d := New(PageSize, nil)
	d.EnableTracking()
	d.Store64(0, 1)
	d.DisableTracking()
	defer func() {
		if recover() == nil {
			t.Fatal("CrashImage without tracking should panic")
		}
	}()
	d.CrashImage(CrashDropAll)
}

// Property: for any sequence of persisted writes, the DropAll crash image
// equals the volatile image on the written region.
func TestQuickPersistedWritesSurvive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(PageSize, nil)
		d.EnableTracking()
		type wr struct {
			off int64
			p   []byte
		}
		var writes []wr
		for i := 0; i < 12; i++ {
			n := int64(rng.Intn(200) + 1)
			off := int64(rng.Intn(PageSize - int(n)))
			p := make([]byte, n)
			rng.Read(p)
			d.Write(off, p)
			d.Persist(off, n)
			writes = append(writes, wr{off, p})
		}
		img := d.CrashImage(CrashDropAll)
		for _, w := range writes {
			if !bytes.Equal(img[w.off:w.off+int64(len(w.p))], d.Slice(w.off, int64(len(w.p)))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: any crash image is a mixture of per-line store-history
// prefixes — for every line it matches the content after some number of
// that line's recorded stores.
func TestQuickCrashImagesAreLineConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(PageSize, nil)
		// Model the per-line histories independently.
		histories := make(map[int64][][]byte)
		record := func(line int64) {
			snap := make([]byte, LineSize)
			copy(snap, d.Slice(line*LineSize, LineSize))
			histories[line] = append(histories[line], snap)
		}
		d.EnableTracking()
		for line := int64(0); line < 8; line++ {
			histories[line] = [][]byte{make([]byte, LineSize)} // version 0: zeros
		}
		for i := 0; i < 60; i++ {
			line := int64(rng.Intn(8))
			d.Store64(line*LineSize+int64(rng.Intn(8))*8, rng.Uint64())
			record(line)
			if rng.Intn(4) == 0 {
				d.Flush(line*LineSize, LineSize)
			}
			if rng.Intn(8) == 0 {
				d.Fence()
			}
		}
		img := d.CrashImage(CrashRandom(seed ^ 0x5a5a))
		for line := int64(0); line < 8; line++ {
			got := img[line*LineSize : (line+1)*LineSize]
			ok := false
			for _, v := range histories[line] {
				if bytes.Equal(got, v) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyBits: a new or restored device has every page's bit set; each
// store path sets the bit of every page it touches and of no other, after
// a ClearDirty that reported the bit set; reads and flushes set nothing;
// ClearDirty leaves the other bits of the word alone.
func TestDirtyBits(t *testing.T) {
	const pages = 130 // three bitmap words, the last one partly used
	for name, d := range map[string]*Device{"new": New(pages*PageSize, nil), "restored": Restore(make([]byte, pages*PageSize), nil)} {
		for p := uint64(0); p < pages; p++ {
			if !d.Dirty(p) {
				t.Fatalf("%s device: page %d clean", name, p)
			}
		}
	}
	line := make([]byte, LineSize)
	for name, store := range map[string]func(d *Device, off int64){
		"Write":   func(d *Device, off int64) { d.Write(off, []byte{1, 2, 3}) },
		"Zero":    func(d *Device, off int64) { d.Zero(off, 3) },
		"Store8":  func(d *Device, off int64) { d.Store8(off, 1) },
		"Store16": func(d *Device, off int64) { d.Store16(off, 1) },
		"Store32": func(d *Device, off int64) { d.Store32(off, 1) },
		"Store64": func(d *Device, off int64) { d.Store64(off, 1) },
		"WriteNT": func(d *Device, off int64) { d.WriteNT(off/LineSize*LineSize, line) },
		"ZeroNT":  func(d *Device, off int64) { d.ZeroNT(off/LineSize*LineSize, LineSize) },
	} {
		d := New(pages*PageSize, nil)
		for p := uint64(0); p < pages; p++ {
			if !d.ClearDirty(p) || d.ClearDirty(p) || d.Dirty(p) {
				t.Fatalf("%s: ClearDirty of page %d did not report set, then clear", name, p)
			}
		}
		d.Read(0, make([]byte, PageSize))
		d.Flush(0, PageSize)
		d.Fence()
		for _, p := range []uint64{0, 63, 64, 129} {
			store(d, int64(p)*PageSize+PageSize/2)
			for q := uint64(0); q < pages; q++ {
				if d.Dirty(q) != (q == p) {
					t.Fatalf("%s to page %d: page %d dirty %v", name, p, q, d.Dirty(q))
				}
			}
			d.ClearDirty(p)
		}
	}
	d := New(pages*PageSize, nil)
	for p := uint64(0); p < pages; p++ {
		d.ClearDirty(p)
	}
	d.Write(2*PageSize-1, []byte{1, 2}) // one store across two pages
	if !d.Dirty(1) || !d.Dirty(2) || d.Dirty(0) || d.Dirty(3) {
		t.Fatal("a store across a page boundary set the wrong bits")
	}
}
