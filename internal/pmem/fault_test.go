package pmem

import (
	"bytes"
	"reflect"
	"testing"
)

// mkTracked builds a small tracked device with an all-zero fenced state.
func mkTracked(t *testing.T) *Device {
	t.Helper()
	d := New(4*PageSize, nil)
	d.EnableTracking()
	return d
}

func TestDropFlushKeepsLineDirty(t *testing.T) {
	d := mkTracked(t)
	p := NewFaultPlan(FaultDropFlush, 1)
	p.FlushEvery = 1 // drop every candidate write-back
	d.SetFaultPlan(p)

	data := bytes.Repeat([]byte{0xAA}, LineSize)
	d.Write(0, data)
	d.Flush(0, LineSize) // lies: reports success, line stays dirty
	d.Fence()            // honest fence, but nothing was flushed

	img := d.CrashImage(CrashDropAll)
	if !bytes.Equal(img[:LineSize], make([]byte, LineSize)) {
		t.Fatalf("dropped flush still persisted: % x", img[:8])
	}
	if got := d.Stats.LiedFlushes.Load(); got == 0 {
		t.Fatalf("LiedFlushes = 0, want > 0")
	}

	// The same sequence on an honest device persists the line.
	h := mkTracked(t)
	h.Write(0, data)
	h.Flush(0, LineSize)
	h.Fence()
	if img := h.CrashImage(CrashDropAll); !bytes.Equal(img[:LineSize], data) {
		t.Fatalf("honest flush+fence did not persist")
	}
}

func TestDropFlushFilterAims(t *testing.T) {
	d := mkTracked(t)
	p := NewFaultPlan(FaultDropFlush, 1)
	p.FlushEvery = 1
	p.Filter = func(lineOff int64) bool { return lineOff == LineSize } // only line 1 lies
	d.SetFaultPlan(p)

	data := bytes.Repeat([]byte{0xBB}, LineSize)
	d.Write(0, data)
	d.Write(LineSize, data)
	d.Flush(0, 2*LineSize)
	d.Fence()

	img := d.CrashImage(CrashDropAll)
	if !bytes.Equal(img[:LineSize], data) {
		t.Fatalf("unfiltered line 0 should persist")
	}
	if bytes.Equal(img[LineSize:2*LineSize], data) {
		t.Fatalf("filtered line 1 should stay dirty")
	}
}

func TestDropFenceRevertsFlushedLines(t *testing.T) {
	d := mkTracked(t)
	p := NewFaultPlan(FaultDropFence, 1)
	p.FenceEvery = 1 // every fence lies
	d.SetFaultPlan(p)

	data := bytes.Repeat([]byte{0xCC}, LineSize)
	d.Write(0, data)
	d.Flush(0, LineSize)
	d.Fence() // lies: queued write-back dropped, line reverts to dirty

	img := d.CrashImage(CrashDropAll)
	if bytes.Equal(img[:LineSize], data) {
		t.Fatalf("lying fence persisted the line")
	}
	if got := d.Stats.LiedFences.Load(); got == 0 {
		t.Fatalf("LiedFences = 0, want > 0")
	}
	// The line is dirty again, so a permissive crash can still persist it
	// (the store itself was never lost, only its durability).
	if img := d.CrashImage(CrashPersistAll); !bytes.Equal(img[:LineSize], data) {
		t.Fatalf("dropped fence lost the volatile store history")
	}
}

func TestTearLineSplitsPersistingLine(t *testing.T) {
	d := mkTracked(t)
	d.SetFaultPlan(NewFaultPlan(FaultTearLine, 3))

	data := bytes.Repeat([]byte{0xDD}, LineSize)
	d.Write(0, data) // dirty, un-fenced: last durable content is zeros

	img := d.CrashImage(CrashPersistAll)
	if got := d.Stats.TornLines.Load(); got != 1 {
		t.Fatalf("TornLines = %d, want 1", got)
	}
	split := 0
	for split < LineSize && img[split] == 0xDD {
		split++
	}
	if split < 1 || split >= LineSize {
		t.Fatalf("tear split = %d, want in [1, %d)", split, LineSize)
	}
	for i := split; i < LineSize; i++ {
		if img[i] != 0 {
			t.Fatalf("torn tail byte %d = %#x, want previous durable content", i, img[i])
		}
	}
}

// TestStreamedLineLiesLikeFlushedLine holds a line written by one streaming
// store to the same line written by a store + clwb, each then fenced: in
// the crash model they are one event (see WriteNT), so under a drop-flush
// aimed at the line, a lying fence and a torn line both sides must count
// the same lies, leave the same lines dirty, and materialize the same
// crash images before and after the fence.
func TestStreamedLineLiesLikeFlushedLine(t *testing.T) {
	const line = 2 * LineSize
	data := bytes.Repeat([]byte{0xEE}, LineSize)
	type outcome struct {
		flushes, fences, torn int64
		dirty                 []int64
		unfenced, fenced      []byte
	}
	run := func(plan func() *FaultPlan, streamed bool) outcome {
		d := mkTracked(t)
		d.SetFaultPlan(plan())
		if streamed {
			d.WriteNT(line, data)
		} else {
			d.Write(line, data)
			d.Flush(line, LineSize)
		}
		unfenced := d.CrashImage(CrashPersistAll)
		d.Fence()
		return outcome{d.Stats.LiedFlushes.Load(), d.Stats.LiedFences.Load(), d.Stats.TornLines.Load(),
			d.DirtyLines(), unfenced, d.CrashImage(CrashDropAll)}
	}
	for _, c := range []struct {
		name string
		plan func() *FaultPlan
		lies func(outcome) int64
	}{
		{"drop-flush", func() *FaultPlan {
			p := NewFaultPlan(FaultDropFlush, 1)
			p.FlushEvery = 1
			p.Filter = func(lineOff int64) bool { return lineOff == line }
			return p
		}, func(o outcome) int64 { return o.flushes }},
		{"drop-fence", func() *FaultPlan {
			p := NewFaultPlan(FaultDropFence, 1)
			p.FenceEvery = 1
			return p
		}, func(o outcome) int64 { return o.fences }},
		{"torn-line", func() *FaultPlan { return NewFaultPlan(FaultTearLine, 5) },
			func(o outcome) int64 { return o.torn }},
	} {
		streamed, flushed := run(c.plan, true), run(c.plan, false)
		if c.lies(streamed) != 1 {
			t.Errorf("%s: the streamed side told %d lies, want 1", c.name, c.lies(streamed))
		}
		if !reflect.DeepEqual(streamed, flushed) {
			t.Errorf("%s: the lie surfaces differently when the line was streamed than when it was clwb'd:\n streamed %d/%d/%d lies, dirty %v\n flushed  %d/%d/%d lies, dirty %v",
				c.name, streamed.flushes, streamed.fences, streamed.torn, streamed.dirty,
				flushed.flushes, flushed.fences, flushed.torn, flushed.dirty)
		}
	}
}

func TestFaultPlanDeterminism(t *testing.T) {
	run := func() []byte {
		d := mkTracked(t)
		p := NewFaultPlan(FaultDropFlush|FaultDropFence, 42)
		p.FlushEvery, p.FenceEvery = 3, 4
		d.SetFaultPlan(p)
		for l := int64(0); l < 32; l++ {
			d.Write(l*LineSize, bytes.Repeat([]byte{byte(l + 1)}, LineSize))
			d.Flush(l*LineSize, LineSize)
			if l%4 == 3 {
				d.Fence()
			}
		}
		d.Fence()
		return d.CrashImage(CrashDropAll)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatalf("same seed and op sequence produced different crash images")
	}
}

func TestKillpointArmsAndFires(t *testing.T) {
	defer DisarmKillpoint()
	fired := 0
	ArmKillpoint("test.site", 2, func(site string) {
		if site != "test.site" {
			t.Fatalf("fired with site %q", site)
		}
		fired++
	})
	Killpoint("other.site") // wrong site: ignored
	Killpoint("test.site")  // hit 1 of 2
	if fired != 0 {
		t.Fatalf("fired on hit 1, want hit 2")
	}
	Killpoint("test.site") // hit 2: fires
	if fired != 1 {
		t.Fatalf("fired = %d after hit 2, want 1", fired)
	}
	Killpoint("test.site") // past the armed hit: no refire
	if fired != 1 {
		t.Fatalf("fired = %d after hit 3, want 1", fired)
	}
	DisarmKillpoint()
	Killpoint("test.site")
	if fired != 1 {
		t.Fatalf("disarmed killpoint fired")
	}
}
