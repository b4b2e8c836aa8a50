// Benchmarks for the measurements cmd/arckbench does not regenerate:
// Table 1's per-patch create/open and release costs, and the batched-create
// customization. Every other table and figure of the ArckFS+ paper runs
// one way, `arckbench -exp` (EXPERIMENTS.md).
//
//	go test -run '^$' -bench . -benchmem .
package arckfs_test

import (
	"fmt"
	"testing"

	"arckfs/internal/bench/experiments"
	"arckfs/internal/bench/fxmark"
	"arckfs/internal/core"
	"arckfs/internal/costmodel"
	"arckfs/internal/libfs"
)

const benchDev = 256 << 20

// benchFxmarkSingle runs one single-thread fxmark workload on sysName.
func benchFxmarkSingle(b *testing.B, sysName, workload string) {
	fs, err := experiments.MakeFS(sysName, benchDev, costmodel.Default())
	if err != nil {
		b.Fatal(err)
	}
	w, ok := fxmark.ByName(workload)
	if !ok {
		b.Fatalf("no workload %s", workload)
	}
	cfg := fxmark.Defaults()
	if err := w.Setup(fs, 1, cfg); err != nil {
		b.Fatal(err)
	}
	op, err := w.Worker(fs, 0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Customization ablation: batched creation (Trio's per-app freedom) --------

// BenchmarkCustomizationCreateBatch compares the batched-create
// customization against individual creates on ArckFS+ — the kind of
// application-specific win Trio's architecture exists to allow.
func BenchmarkCustomizationCreateBatch(b *testing.B) {
	const batch = 64
	mkApp := func(b *testing.B) *libfs.FS {
		sys, err := core.NewSystem(core.Config{DevSize: 512 << 20, InodeCap: 1 << 19, Cost: costmodel.Default()})
		if err != nil {
			b.Fatal(err)
		}
		return sys.NewApp(0, 0)
	}
	b.Run("individual", func(b *testing.B) {
		w := mkApp(b).NewThread(0)
		w.Mkdir("/d")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Create(fmt.Sprintf("/d/f%d", i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		w := mkApp(b).NewThread(0).(*libfs.Thread)
		w.Mkdir("/d")
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			names := make([]string, batch)
			for k := range names {
				names[k] = fmt.Sprintf("f%d-%d", i, k)
			}
			if _, err := w.CreateBatch("/d", names); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Table 1 ablation: the cost of each individual patch ----------------------

// BenchmarkTable1PatchCost measures create and open throughput with the
// patches present and absent, isolating the overhead column of Table 1:
// create carries the §4.2 fence and §4.4 critical-section extension;
// open carries the §4.5 RCU read side.
func BenchmarkTable1PatchCost(b *testing.B) {
	cases := []struct {
		name string
		bugs string
	}{
		{"all-patches(arckfs+)", "arckfs+"},
		{"no-patches(arckfs)", "arckfs"},
	}
	for _, c := range cases {
		b.Run("create/"+c.name, func(b *testing.B) { benchFxmarkSingle(b, c.bugs, "MWCL") })
		b.Run("open/"+c.name, func(b *testing.B) { benchFxmarkSingle(b, c.bugs, "MRPL") })
	}
}

// BenchmarkTable1ReleaseCost measures the §4.3 patch's "inode release
// overhead": a voluntary release quiesces the inode's locks (and, for
// directories, every hash bucket) before unmapping, where ArckFS just
// unmaps. Each iteration is one release + re-acquire round trip of a
// 64-entry directory.
func BenchmarkTable1ReleaseCost(b *testing.B) {
	for _, mode := range []core.Mode{core.ArckFSPlus, core.ArckFS} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			sys, err := core.NewSystem(core.Config{Mode: mode, DevSize: benchDev, Cost: costmodel.Default()})
			if err != nil {
				b.Fatal(err)
			}
			app := sys.NewApp(0, 0)
			w := app.NewThread(0).(*libfs.Thread)
			if err := w.Mkdir("/d"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				if err := w.Create(fmt.Sprintf("/d/f%02d", i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := app.ReleaseAll(); err != nil {
				b.Fatal(err)
			}
			st, err := w.Stat("/d")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Mutate the directory (forces a re-acquire), then
				// voluntarily release it.
				p := fmt.Sprintf("/d/tmp%d", i%512)
				if err := w.Create(p); err != nil {
					b.Fatal(err)
				}
				if err := w.Unlink(p); err != nil {
					b.Fatal(err)
				}
				if err := app.ReleaseInode(st.Ino); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
