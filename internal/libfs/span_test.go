package libfs

import (
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// TestLeaseHitSpanPropagation pins the span pipeline across the grant-
// lease fast path: a write that wins its dormant mapping back via the
// Reactivate CAS never crosses into the kernel, and its span must say
// so — complete, closed, carrying the lease-hit event instead of a
// crossing.
func TestLeaseHitSpanPropagation(t *testing.T) {
	fs := newFS(t, BugsNone)
	tr := span.New(span.DefaultRingCap, 1)
	tr.SetEnabled(true)
	fs.SetTracer(tr)
	w := th(t, fs)

	if err := w.Create("/f"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("lease me")
	if _, err := w.WriteAt(fd, data, 0); err != nil {
		t.Fatal(err)
	}
	st, err := w.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	// Rule 1: commit the chain before the voluntary release that leaves
	// the mapping dormant.
	if err := fs.CommitInode(w, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReleaseInode(st.Ino); err != nil {
		t.Fatal(err)
	}

	hits := fs.Stats.LeaseHits.Load()
	if _, err := w.WriteAt(fd, []byte("again!!!"), 0); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats.LeaseHits.Load(); got != hits+1 {
		t.Fatalf("write after release did not take the lease-hit path (hits %d -> %d)", hits, got)
	}

	spans := tr.Snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans recorded at sample=1")
	}
	sp := spans[len(spans)-1]
	if sp.Op != fsapi.OpWrite {
		t.Fatalf("last span is %v, want the re-acquiring write", sp.Op)
	}
	if sp.DurNS <= 0 {
		t.Fatalf("span not closed: DurNS=%d", sp.DurNS)
	}
	var leaseHit, flushed bool
	for _, ev := range sp.Events {
		switch ev.Kind {
		case telemetry.SpanEvLeaseHit:
			if ev.A != int64(st.Ino) {
				t.Fatalf("lease hit names inode %d, want %d", ev.A, st.Ino)
			}
			leaseHit = true
		case telemetry.SpanEvCrossing:
			t.Fatalf("lease-hit write crossed into the kernel: %v", ev)
		case telemetry.SpanEvFlush, telemetry.SpanEvNTStore:
			flushed = true
		}
	}
	if !leaseHit {
		t.Fatalf("span records no lease hit: %v", sp.Events)
	}
	if !flushed {
		t.Fatalf("span records no persist work for the write: %v", sp.Events)
	}
}

// TestSpanDisabledNoRecords pins the off switch: with no tracer
// attached, operations run untraced and nothing is recorded.
func TestSpanDisabledNoRecords(t *testing.T) {
	fs := newFS(t, BugsNone)
	tr := span.New(span.DefaultRingCap, 1) // attached but disabled
	fs.SetTracer(tr)
	w := th(t, fs)
	if err := w.Create("/quiet"); err != nil {
		t.Fatal(err)
	}
	if n := tr.Recorded(); n != 0 {
		t.Fatalf("disabled tracer recorded %d spans", n)
	}
	if len(tr.Snapshot()) != 0 {
		t.Fatal("disabled tracer has retained history")
	}
}

// TestDelegatedWriteSpan pins what a delegated write leaves on its span.
// The workers report to no sink, so the coordinator accounts for them: one
// ntstore event carrying the whole line-aligned interior, the two ragged
// edge lines as the flushes its own batch queued, and the one fence that
// drained exactly those two.
func TestDelegatedWriteSpan(t *testing.T) {
	fs := newFS(t, BugsNone)
	tr := span.New(span.DefaultRingCap, 1)
	fs.SetTracer(tr)
	w := th(t, fs)
	if err := w.Create("/big"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(fd, make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	tr.SetEnabled(true)

	// An in-place overwrite: no block is allocated and no map entry
	// flushed, so every event below is the data path's.
	const off, n = 5000, DelegationThreshold + 17
	if _, err := w.WriteAt(fd, make([]byte, n), off); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	if len(spans) == 0 || spans[len(spans)-1].Op != fsapi.OpWrite {
		t.Fatalf("no write span recorded: %v", spans)
	}
	mi, err := w.lookupFD(fd)
	if err != nil {
		t.Fatal(err)
	}
	arr := mi.file.Load().blockArr()
	devOff := func(fileOff int64) int64 {
		return int64(arr[fileOff/layout.PageSize].Load()*layout.PageSize) + fileOff%layout.PageSize
	}
	const head, tail = 56, (off + n) % pmem.LineSize // 5000 = 78 lines + 8
	want := map[span.Event]int{
		{Kind: telemetry.SpanEvFlush, A: devOff(off - off%pmem.LineSize), B: 1}:    1,
		{Kind: telemetry.SpanEvFlush, A: devOff(off + n - tail), B: 1}:             1,
		{Kind: telemetry.SpanEvNTStore, A: devOff(off + head), B: n - head - tail}: 1,
		{Kind: telemetry.SpanEvFence, A: 2}:                                        1,
	}
	for _, ev := range spans[len(spans)-1].Events {
		ev.TNS = 0
		if ev.Kind == telemetry.SpanEvNTStore && ev.B == layout.InodeSize {
			continue // the rewritten inode record
		}
		if want[ev] == 0 {
			t.Errorf("unexpected event on a delegated overwrite's span: %v", ev)
		}
		want[ev]--
	}
	for ev, left := range want {
		if left != 0 {
			t.Errorf("span lacks %v", ev)
		}
	}
}
