package pmem

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"

	"arckfs/internal/telemetry"
)

// liveHeap collects and returns the bytes the collection found live.
func liveHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// A device lives outside the Go heap, as a DAX mapping does, so the
// collector paces on the heap the file system allocates, not on the device.
func TestDeviceMemoryIsOutsideTheHeap(t *testing.T) {
	if !mapsDevices {
		t.Skip("this build keeps devices on the Go heap (-race, or not unix)")
	}
	before := liveHeap()
	d := New(256<<20, nil)
	d.Store64(d.Size()-8, 1)
	grew := liveHeap() - before
	runtime.KeepAlive(d)
	if grew >= 1<<20 {
		t.Fatalf("a 256 MiB device grew the live heap by %d bytes, want < 1 MiB", grew)
	}
}

// vmRSS returns the process's resident set in bytes, read from
// /proc/self/status.
func vmRSS(t *testing.T) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("VmRSS line %q: %v", sc.Text(), err)
			}
			return kib << 10
		}
	}
	t.Skip("no VmRSS line in /proc/self/status")
	return 0
}

// A dropped device gives its memory back, also when its observer refers to
// it: the finalizer sits on the device's mapping, outside that cycle.
func TestDroppedDevicesAreUnmapped(t *testing.T) {
	before := vmRSS(t)
	for range 64 {
		d := New(4<<20, nil)
		d.SetObserver(func(string) { _ = d.Size() })
		for off := int64(0); off < d.Size(); off += PageSize {
			d.Store8(off, 1)
		}
		runtime.GC()
	}
	if grew := vmRSS(t) - before; grew >= 32<<20 {
		t.Fatalf("64 dropped 4 MiB devices grew RSS by %d MiB, want < 32", grew>>20)
	}
}

func TestMappedBytesGauge(t *testing.T) {
	d := New(1<<20, nil)
	set := telemetry.NewSet()
	d.RegisterTelemetry(set)
	want := int64(0)
	if mapsDevices {
		want = d.Size()
	}
	if got := set.Snapshot()["pmem.mapped_bytes"]; got != want {
		t.Fatalf("pmem.mapped_bytes = %d, want %d", got, want)
	}
	r := Restore(make([]byte, PageSize), nil)
	if got := r.mappedBytes(); got != 0 {
		t.Fatalf("a restored device maps %d bytes, want 0: it lives on the heap", got)
	}
}
