package libfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// TestDelegatedIORoundTrip pushes requests across the delegation
// threshold in both directions and checks byte-exact round trips,
// including unaligned offsets and pre-existing data around the edges.
func TestDelegatedIORoundTrip(t *testing.T) {
	fs := newFS(t, BugsNone)
	w := th(t, fs)
	if err := w.Create("/big"); err != nil {
		t.Fatal(err)
	}
	fd, _ := w.Open("/big")

	// Seed an edge region so partial-coverage zeroing is observable.
	edge := []byte("EDGE-MARKER")
	if _, err := w.WriteAt(fd, edge, 100); err != nil {
		t.Fatal(err)
	}

	blob := make([]byte, DelegationThreshold+3*layout.PageSize+17)
	for i := range blob {
		blob[i] = byte(i*31 + 7)
	}
	const off = 5000 // unaligned, past the edge marker
	if n, err := w.WriteAt(fd, blob, off); err != nil || n != len(blob) {
		t.Fatalf("delegated write: %d, %v", n, err)
	}
	got := make([]byte, len(blob))
	if n, err := w.ReadAt(fd, got, off); err != nil || n != len(blob) {
		t.Fatalf("delegated read: %d, %v", n, err)
	}
	if !bytes.Equal(got, blob) {
		for i := range blob {
			if got[i] != blob[i] {
				t.Fatalf("mismatch at %d: %d != %d", i, got[i], blob[i])
			}
		}
	}
	// The pre-existing edge survived, and the gap reads as zeros.
	check := make([]byte, len(edge))
	w.ReadAt(fd, check, 100)
	if !bytes.Equal(check, edge) {
		t.Fatalf("edge clobbered: %q", check)
	}
	gap := make([]byte, 64)
	w.ReadAt(fd, gap, 256)
	for i, b := range gap {
		if b != 0 {
			t.Fatalf("gap byte %d = %d", i, b)
		}
	}
	// And the result is ordinary verifiable state.
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll: %v", err)
	}
}

// TestDelegatedReadConcurrentWithSmallIO mixes delegated and inline
// paths across goroutines on distinct files.
func TestDelegatedReadConcurrentWithSmallIO(t *testing.T) {
	fs := newFS(t, BugsNone)
	setup := th(t, fs)
	setup.Create("/a")
	setup.Create("/b")
	big := make([]byte, DelegationThreshold)
	for i := range big {
		big[i] = 0xAB
	}
	fdA, _ := setup.Open("/a")
	if _, err := setup.WriteAt(fdA, big, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() {
		w := fs.NewThread(1).(*Thread)
		defer w.Detach()
		fd, err := w.Open("/a")
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, DelegationThreshold)
		for i := 0; i < 10; i++ {
			if _, err := w.ReadAt(fd, buf, 0); err != nil {
				done <- err
				return
			}
			if buf[0] != 0xAB || buf[len(buf)-1] != 0xAB {
				done <- bytes.ErrTooLarge // any sentinel error
				return
			}
		}
		done <- nil
	}()
	go func() {
		w := fs.NewThread(2).(*Thread)
		defer w.Detach()
		fd, err := w.Open("/b")
		if err != nil {
			done <- err
			return
		}
		small := []byte("tiny")
		for i := 0; i < 200; i++ {
			if _, err := w.WriteAt(fd, small, int64(i*8)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDelegatedWriteLineCounts pins the persist schedule of a delegated
// write at the counter level: the workers stream whole lines and queue no
// clwb, so the only lines flushed are the block-map entries and the
// coordinator's ragged edges; and the fence count is what the store + clwb
// workers paid (data, fresh map page, metadata).
func TestDelegatedWriteLineCounts(t *testing.T) {
	const size = 1 << 20
	run := func(off int64) (ntstores, flushes, fences int64) {
		dev := pmem.New(64<<20, nil)
		ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
		w := th(t, fs)
		if err := w.Create("/f"); err != nil {
			t.Fatal(err)
		}
		fd, err := w.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		s := &dev.Stats
		nt0, fl0, fe0 := s.NTStores.Load(), s.Flushes.Load(), s.Fences.Load()
		if _, err := w.WriteAt(fd, make([]byte, size), off); err != nil {
			t.Fatal(err)
		}
		return s.NTStores.Load() - nt0, s.Flushes.Load() - fl0, s.Fences.Load() - fe0
	}
	const (
		dataLines = size / pmem.LineSize              // 16 384
		metaNT    = layout.PageSize/pmem.LineSize + 1 // the zeroed fresh map page + the inode record's line
	)
	for _, tc := range []struct {
		name        string
		off         int64
		nt, flushes int64
	}{
		// 256 adjacent 8-byte map entries coalesce into 32 lines; no data
		// line is flushed.
		{"aligned", 0, dataLines + metaNT, 32},
		// Offset 5000 leaves a 56-byte head and an 8-byte tail: two edge
		// lines flushed by the coordinator, 16 383 interior lines streamed,
		// and map entries 1..257 span 33 lines. Of the two partially
		// covered fresh blocks only block 1's head gap [4096, 5000) is
		// zero-streamed, rounded up to the line holding 5000: 15 lines.
		// Block 257's tail lies past the new size and is not zeroed.
		{"ragged", 5000, dataLines - 1 + 15 + metaNT, 33 + 2},
	} {
		nt, flushes, fences := run(tc.off)
		if nt != tc.nt || flushes != tc.flushes {
			t.Errorf("%s: %d NT lines, %d flushed lines; want %d, %d", tc.name, nt, flushes, tc.nt, tc.flushes)
		}
		// The fresh map page, the data, the map entries, the size.
		if fences != 4 {
			t.Errorf("%s: %d fences, want 4", tc.name, fences)
		}
	}
}

// dirtyPool writes n bytes of 0xAB junk and frees them again, so the next
// allocations (the pool is LIFO) hand out pages whose unwritten contents
// cannot pass for zeroes.
func dirtyPool(t *testing.T, w *Thread, n int) {
	t.Helper()
	if err := w.Create("/junk"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("/junk")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(fd, bytes.Repeat([]byte{0xAB}, n), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := w.Unlink("/junk"); err != nil {
		t.Fatal(err)
	}
	w.fs.Domain().Barrier()
}

// TestDelegatedHoleFillConcurrentReader fills a hole below the published
// size with a delegated write while a lock-free reader watches: the fresh
// blocks' pointers are reachable the instant they are stored, so the
// reader must find zeroes in them, never a recycled page's old bytes. It
// reads the two gaps of the partially covered edge blocks — bytes the copy
// itself never stores to, so the overlap is race-free by construction —
// and afterwards the whole range, byte-exact.
func TestDelegatedHoleFillConcurrentReader(t *testing.T) {
	fs := newFS(t, BugsNone)
	w := th(t, fs)
	const (
		fileSize = 2 << 20
		off      = 512<<10 + 1000 // mid-block, mid-line
		n        = DelegationThreshold + 2*layout.PageSize + 17
	)
	dirtyPool(t, w, n+2*layout.PageSize)

	if err := w.Create("/holey"); err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate("/holey", fileSize); err != nil {
		t.Fatal(err)
	}
	fd, _ := w.Open("/holey")
	blob := make([]byte, n)
	for i := range blob {
		blob[i] = byte(i%251) + 1 // never zero
	}
	headGap := int64(off) / layout.PageSize * layout.PageSize
	tailGap := (int64(off)+n+pmem.LineSize-1)/pmem.LineSize*pmem.LineSize + pmem.LineSize

	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		r := fs.NewThread(1).(*Thread)
		defer r.Detach()
		rfd, err := r.Open("/holey")
		if err != nil {
			done <- err
			return
		}
		gap := make([]byte, 512)
		for !stop.Load() {
			for _, at := range []int64{headGap, tailGap} {
				if _, err := r.ReadAt(rfd, gap, at); err != nil {
					done <- err
					return
				}
				if i := len(gap) - len(bytes.TrimLeft(gap, "\x00")); i < len(gap) {
					done <- fmt.Errorf("gap byte at %d reads %#x during the hole fill", at+int64(i), gap[i])
					return
				}
			}
		}
		got := make([]byte, fileSize)
		if n, err := r.ReadAt(rfd, got, 0); err != nil || n != fileSize {
			done <- fmt.Errorf("read back: %d, %v", n, err)
			return
		}
		want := make([]byte, fileSize)
		copy(want[off:], blob)
		if !bytes.Equal(got, want) {
			done <- errors.New("hole-filled file does not read back byte-exact")
			return
		}
		done <- nil
	}()
	if _, err := w.WriteAt(fd, blob, off); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll: %v", err)
	}
}

func benchDelegated(b *testing.B, write bool) {
	fs := newFS(b, BugsNone)
	w := th(b, fs)
	if err := w.Create("/bench"); err != nil {
		b.Fatal(err)
	}
	fd, err := w.Open("/bench")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	if _, err := w.WriteAt(fd, buf, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if write {
			_, err = w.WriteAt(fd, buf, 0)
		} else {
			_, err = w.ReadAt(fd, buf, 0)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelegatedWrite is a 1 MiB in-place overwrite through the
// delegate fan-out; BenchmarkDelegatedRead the matching read.
func BenchmarkDelegatedWrite(b *testing.B) { benchDelegated(b, true) }
func BenchmarkDelegatedRead(b *testing.B)  { benchDelegated(b, false) }
