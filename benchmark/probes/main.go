// Command probes times the exported functions of single layers in
// isolation: cost model off, fixed iteration counts, the median of five
// batches. It is the only part of the benchmark that imports the inner
// packages, and it runs as its own process, so when a later change to one of
// those APIs breaks it the runner prints null for these metrics and the
// end-to-end numbers are unaffected. It prints one JSON object, metric name
// to value (null for a probe that failed).
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"arckfs"
	"arckfs/benchmark/workload"
	"arckfs/internal/core"
	"arckfs/internal/hlock"
	"arckfs/internal/htable"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmalloc"
	"arckfs/internal/pmem"
	"arckfs/internal/rcu"
	"arckfs/internal/tenancy"
)

const batches = 5

// out collects results; a probe that fails or panics leaves nulls behind.
var out = map[string]*float64{}

// set records the probe metric "<layer>.<name>" (see workload.ProbeMetrics).
func set(layer, name string, v float64) { out[layer+"."+name] = &v }

// perIter runs batch (which performs n iterations of the probed call and
// returns the time they took) five times and returns the median time per
// iteration in nanoseconds.
func perIter(n int, batch func(n int) time.Duration) float64 {
	v := make([]float64, batches)
	for i := range v {
		v[i] = float64(batch(n)) / float64(n)
	}
	sort.Float64s(v)
	return v[batches/2]
}

// timeLoop is the common batch: n back-to-back calls of fn.
func timeLoop(fn func(i int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return time.Since(t)
	}
}

func names(prefix string, n int) []string {
	s := make([]string, n)
	for i := range s {
		s[i] = fmt.Sprintf("%s%07d", prefix, i)
	}
	return s
}

func probeHtable() error {
	dom := rcu.NewDomain()
	rd := dom.Register()
	rng := rand.New(rand.NewSource(1))
	for _, size := range []struct {
		metric string
		n      int
	}{{"lookup_64_ns", 64}, {"lookup_4k_ns", 4096}} {
		t := htable.New(htable.Options{RCUReaders: true, Dom: dom, InitialBuckets: 16})
		held := names("f", size.n)
		for i, n := range held {
			t.Insert(n, uint64(i+2), 0)
		}
		order := rng.Perm(1 << 16)
		set("htable", size.metric, perIter(200_000, timeLoop(func(i int) {
			if _, _, ok, err := t.Lookup(rd, held[order[i&(1<<16-1)]%size.n]); !ok || err != nil {
				panic("htable probe: lookup of a held name failed")
			}
		})))
	}
	// Insert and delete on a table that already holds 4096 names, the size
	// the shared directory of lookup_shared has.
	t := htable.New(htable.Options{RCUReaders: true, Dom: dom, InitialBuckets: 16})
	for i, n := range names("f", 4096) {
		t.Insert(n, uint64(i+2), 0)
	}
	fresh := names("g", 20_000)
	var del []float64
	set("htable", "insert_ns", perIter(len(fresh), func(n int) time.Duration {
		took := timeLoop(func(i int) { t.Insert(fresh[i], uint64(i+2), 0) })(n)
		del = append(del, float64(timeLoop(func(i int) { t.Delete(fresh[i]) })(n))/float64(n))
		dom.Barrier()
		return took
	}))
	sort.Float64s(del)
	set("htable", "delete_ns", del[len(del)/2])
	return nil
}

func probePmalloc() error {
	dev := pmem.New(64<<20, nil)
	g, err := layout.Mkfs(dev, 1024, 4)
	if err != nil {
		return err
	}
	a := pmalloc.New(g)
	const n = 8192
	pages := make([]uint64, n)
	var free []float64
	set("pmalloc", "alloc_ns", perIter(n, func(n int) time.Duration {
		took := timeLoop(func(i int) {
			p, err := a.Alloc(0)
			if err != nil {
				panic(err)
			}
			pages[i] = p
		})(n)
		free = append(free, float64(timeLoop(func(i int) { a.Free(pages[i]) })(n))/float64(n))
		return took
	}))
	sort.Float64s(free)
	set("pmalloc", "free_ns", free[len(free)/2])
	set("pmalloc", "alloc_batch_ns", perIter(128, func(n int) time.Duration {
		var got [][]uint64
		took := timeLoop(func(int) {
			b, err := a.AllocBatch(0, 64)
			if err != nil {
				panic(err)
			}
			got = append(got, b)
		})(n)
		for _, b := range got {
			a.Free(b...)
		}
		return took
	}))
	return nil
}

func probePmem() error {
	dev := pmem.New(64<<20, nil)
	b := dev.NewBatch()
	defer b.Drain()
	const lines = 8 // one persist epoch of a small metadata op
	var barrier []float64
	set("pmem", "batch_flush_ns", perIter(20_000, func(n int) time.Duration {
		var flush, fence time.Duration
		for i := 0; i < n; i += lines {
			base := int64(i%4096) * pmem.LineSize
			t := time.Now()
			for l := int64(0); l < lines; l++ {
				dev.Store64(base+l*pmem.LineSize, uint64(i))
				b.Flush(base+l*pmem.LineSize, 8)
			}
			flush += time.Since(t)
			t = time.Now()
			b.Barrier()
			fence += time.Since(t)
		}
		barrier = append(barrier, float64(fence)/float64(n/lines))
		return flush
	}))
	sort.Float64s(barrier)
	set("pmem", "batch_barrier_ns", barrier[len(barrier)/2])
	buf := make([]byte, 4096)
	set("pmem", "write_stream_4k_ns", perIter(20_000, timeLoop(func(i int) {
		b.WriteStream(int64(i%8192)*4096, buf)
		b.Barrier()
	})))
	set("pmem", "read_4k_ns", perIter(50_000, timeLoop(func(i int) {
		dev.Read(int64(i*7919%8192)*4096, buf)
	})))
	return nil
}

func probeKernel() error {
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{})
	if err != nil {
		return err
	}
	app := ctrl.RegisterApp(0, 0)
	var release []float64
	set("kernel", "acquire_ns", perIter(5_000, func(n int) time.Duration {
		var acq, rel time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			if _, err := ctrl.Acquire(app, layout.RootIno, true); err != nil {
				panic(err)
			}
			acq += time.Since(t)
			t = time.Now()
			if err := ctrl.Release(app, layout.RootIno); err != nil {
				panic(err)
			}
			rel += time.Since(t)
		}
		release = append(release, float64(rel)/float64(n))
		return acq
	}))
	sort.Float64s(release)
	set("kernel", "release_ns", release[len(release)/2])
	set("kernel", "grant_pages_ns", perIter(500, func(n int) time.Duration {
		var got [][]uint64
		took := timeLoop(func(int) {
			p, err := ctrl.GrantPages(app, 0, 16)
			if err != nil {
				panic(err)
			}
			got = append(got, p)
		})(n)
		for _, p := range got {
			ctrl.ReturnPages(app, p)
		}
		return took
	}))
	set("kernel", "grant_inodes_ns", perIter(200, timeLoop(func(int) {
		if _, err := ctrl.GrantInodes(app, 16); err != nil {
			panic(err)
		}
	})))
	return nil
}

// probeMount times kernel.Mount (recovery on) of a clean image holding one
// directory of 4096 files: the part of recover_ms that is not the image copy.
func probeMount() error {
	sys, err := arckfs.New(arckfs.Options{DevSize: 64 << 20})
	if err != nil {
		return err
	}
	app := sys.NewApp()
	t := app.NewThread(0)
	if err := t.Mkdir("/d"); err != nil {
		return err
	}
	for _, n := range names("/d/f", 4096) {
		if err := t.Create(n); err != nil {
			return err
		}
	}
	if err := app.ReleaseAll(); err != nil {
		return err
	}
	img := sys.Image()
	set("kernel", "mount_ms", perIter(1, func(int) time.Duration {
		dev := pmem.Restore(img, nil)
		t := time.Now()
		if _, _, err := kernel.Mount(dev, kernel.Options{}, true); err != nil {
			panic(err)
		}
		return time.Since(t)
	})/1e6)
	return nil
}

// probeVerifier times release -> verify of a 4096-entry directory and of a
// 64 MiB file, each after one small change by its owner.
func probeVerifier() error {
	sys, err := arckfs.New(arckfs.Options{DevSize: 128 << 20})
	if err != nil {
		return err
	}
	app := sys.NewApp()
	t := app.NewThread(0)
	if err := t.Mkdir("/d"); err != nil {
		return err
	}
	for _, n := range names("/d/f", 4096) {
		if err := t.Create(n); err != nil {
			return err
		}
	}
	if err := t.Create("/big"); err != nil {
		return err
	}
	fd, err := t.Open("/big")
	if err != nil {
		return err
	}
	chunk := make([]byte, 1<<20)
	for off := int64(0); off < 64<<20; off += int64(len(chunk)) {
		if _, err := t.WriteAt(fd, chunk, off); err != nil {
			return err
		}
	}
	if err := app.ReleaseAll(); err != nil {
		return err
	}
	extra := names("/d/x", batches)
	i := 0
	set("verifier", "verify_dir_4k_us", perIter(1, func(int) time.Duration {
		if err := t.Create(extra[i]); err != nil {
			panic(err)
		}
		i++
		began := time.Now()
		if err := app.Release("/d"); err != nil {
			panic(err)
		}
		return time.Since(began)
	})/1e3)
	set("verifier", "verify_file_64m_us", perIter(1, func(int) time.Duration {
		if _, err := t.WriteAt(fd, chunk[:4096], 0); err != nil {
			panic(err)
		}
		began := time.Now()
		if err := app.Release("/big"); err != nil {
			panic(err)
		}
		return time.Since(began)
	})/1e3)
	return nil
}

func probeSync() error {
	dom := rcu.NewDomain()
	rd := dom.Register()
	set("rcu", "read_lock_ns", perIter(1_000_000, timeLoop(func(int) {
		rd.ReadLock()
		rd.ReadUnlock()
	})))
	set("rcu", "defer_ns", perIter(2_000, func(n int) time.Duration {
		took := timeLoop(func(int) { dom.Defer(func() {}) })(n)
		dom.Barrier()
		return took
	}))
	set("rcu", "synchronize_us", perIter(1_000, timeLoop(func(int) { dom.Synchronize() }))/1e3)
	var spin hlock.SpinLock
	set("hlock", "spin_lock_ns", perIter(1_000_000, timeLoop(func(int) {
		spin.Lock()
		spin.Unlock()
	})))
	var br hlock.BRLock
	set("hlock", "brlock_rlock_ns", perIter(1_000_000, timeLoop(func(int) {
		br.RUnlock(br.RLock())
	})))
	return nil
}

func probeTelemetryTenancy() error {
	sys, err := core.NewSystem(core.Config{DevSize: 64 << 20})
	if err != nil {
		return err
	}
	sys.NewApp(0, 0)
	set("telemetry", "snapshot_us", perIter(2_000, timeLoop(func(int) { sys.Telemetry().Snapshot() }))/1e3)
	reg := tenancy.NewRegistry(sys)
	set("tenancy", "spawn_us", perIter(256, timeLoop(func(int) {
		if _, err := reg.Spawn(kernel.Quota{}); err != nil {
			panic(err)
		}
	}))/1e3)
	per, err := tenancy.MeasureIdleFootprint(1000)
	if err != nil {
		return err
	}
	set("tenancy", "idle_bytes_per_tenant", per)
	return nil
}

// guard runs one probe group; a panic or error costs only that group.
func guard(name string, probe func() error) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "probes: %s panicked: %v\n", name, r)
		}
	}()
	if err := probe(); err != nil {
		fmt.Fprintf(os.Stderr, "probes: %s: %v\n", name, err)
	}
}

func main() {
	for _, m := range workload.ProbeMetrics {
		out[m.Name] = nil
	}
	guard("htable", probeHtable)
	guard("pmalloc", probePmalloc)
	guard("pmem", probePmem)
	guard("kernel", probeKernel)
	guard("mount", probeMount)
	guard("verifier", probeVerifier)
	guard("rcu/hlock", probeSync)
	guard("telemetry/tenancy", probeTelemetryTenancy)
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "probes:", err)
		os.Exit(1)
	}
}
