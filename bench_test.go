// Benchmarks regenerating the paper's evaluation as Go testing.B
// targets. Each benchmark corresponds to a table or figure of the
// ArckFS+ paper (EXPERIMENTS.md gives each one's command); cmd/arckbench
// produces the full rendered tables.
//
//	go test -bench=. -benchmem
package arckfs_test

import (
	"fmt"
	"testing"

	"arckfs/internal/bench/experiments"
	"arckfs/internal/bench/filebench"
	"arckfs/internal/bench/fiolike"
	"arckfs/internal/bench/fxmark"
	"arckfs/internal/bench/sharing"
	"arckfs/internal/core"
	"arckfs/internal/costmodel"
	"arckfs/internal/fsapi"
	"arckfs/internal/kv"
	"arckfs/internal/libfs"
)

const benchDev = 256 << 20

func benchFS(b *testing.B, name string) fsapi.FS {
	b.Helper()
	fs, err := experiments.MakeFS(name, benchDev, costmodel.Default())
	if err != nil {
		b.Fatal(err)
	}
	return fs
}

// --- Figure 3: single-thread metadata operations ---------------------------

func benchFxmarkSingle(b *testing.B, sysName, workload string) {
	fs := benchFS(b, sysName)
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

func BenchmarkFigure3Open(b *testing.B) {
	for _, sys := range []string{"arckfs", "arckfs+", "nova", "pmfs", "kucofs"} {
		b.Run(sys, func(b *testing.B) { benchFxmarkSingle(b, sys, "MRPL") })
	}
}

func BenchmarkFigure3Create(b *testing.B) {
	for _, sys := range []string{"arckfs", "arckfs+", "nova", "pmfs", "kucofs"} {
		b.Run(sys, func(b *testing.B) { benchFxmarkSingle(b, sys, "MWCL") })
	}
}

func BenchmarkFigure3Delete(b *testing.B) {
	for _, sys := range []string{"arckfs", "arckfs+", "nova", "pmfs", "kucofs"} {
		b.Run(sys, func(b *testing.B) { benchFxmarkSingle(b, sys, "MWUL") })
	}
}

// --- §5.1 data: single-thread 4K read/write --------------------------------

func BenchmarkDataRead4K(b *testing.B) {
	for _, sys := range []string{"arckfs", "arckfs+", "nova"} {
		b.Run(sys, func(b *testing.B) {
			benchFxmarkSingle(b, sys, "DRBL")
			b.SetBytes(4096)
		})
	}
}

func BenchmarkDataWrite4K(b *testing.B) {
	for _, sys := range []string{"arckfs", "arckfs+", "nova"} {
		b.Run(sys, func(b *testing.B) {
			benchFxmarkSingle(b, sys, "DWOL")
			b.SetBytes(4096)
		})
	}
}

// --- Figure 4 / Table 2: FxMark metadata scalability ------------------------

// BenchmarkFxmark runs every Table-3 workload for ArckFS and ArckFS+ at
// a small thread sweep (full sweep: cmd/arckbench -exp figure4).
func BenchmarkFxmark(b *testing.B) {
	for _, w := range fxmark.Metadata {
		for _, sys := range []string{"arckfs", "arckfs+"} {
			for _, th := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/%s/t%d", w.Name, sys, th), func(b *testing.B) {
					fs := benchFS(b, sys)
					res, err := fxmark.RunWorkload(fs, w, th, b.N/th+1, fxmark.Defaults())
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.OpsPerSec(), "ops/s")
				})
			}
		}
	}
}

// --- §5.2 fio ---------------------------------------------------------------

func BenchmarkFio(b *testing.B) {
	for _, job := range fiolike.StandardJobs(4 << 20) {
		for _, sys := range []string{"arckfs+", "nova"} {
			b.Run(job.Name+"/"+sys, func(b *testing.B) {
				fs := benchFS(b, sys)
				res, err := fiolike.Run(fs, job, 2, b.N/2+1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.GiBPerSec(), "GiB/s")
			})
		}
	}
}

// --- §5.3 Filebench ----------------------------------------------------------

func BenchmarkFilebench(b *testing.B) {
	for _, p := range []filebench.Personality{filebench.Webproxy, filebench.Varmail} {
		for _, sys := range []string{"arckfs", "arckfs+", "nova"} {
			for _, th := range []int{1, 16} {
				b.Run(fmt.Sprintf("%s/%s/t%d", p, sys, th), func(b *testing.B) {
					fs := benchFS(b, sys)
					cfg := filebench.Defaults(p)
					cfg.Files = 128
					n := b.N/th + 1
					res, err := filebench.Run(fs, cfg, th, n)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.OpsPerSec(), "ops/s")
				})
			}
		}
	}
}

// --- §5.3 LevelDB ------------------------------------------------------------

func BenchmarkLevelDB(b *testing.B) {
	val := make([]byte, 100)
	for _, sys := range []string{"arckfs", "arckfs+", "nova"} {
		b.Run("fillseq/"+sys, func(b *testing.B) {
			fs := benchFS(b, sys)
			db, err := kv.Open(fs, kv.Options{MemtableBytes: 256 << 10})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put([]byte(fmt.Sprintf("%016d", i)), val); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("readrandom/"+sys, func(b *testing.B) {
			fs := benchFS(b, sys)
			db, err := kv.Open(fs, kv.Options{MemtableBytes: 256 << 10})
			if err != nil {
				b.Fatal(err)
			}
			const n = 5000
			for i := 0; i < n; i++ {
				db.Put([]byte(fmt.Sprintf("%016d", i)), val)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Get([]byte(fmt.Sprintf("%016d", (i*40503)%n))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 4: sharing cost ----------------------------------------------------

func BenchmarkTable4SharedWrite(b *testing.B) {
	for _, size := range []uint64{2 << 20, 64 << 20} {
		for _, trust := range []bool{false, true} {
			name := fmt.Sprintf("%dMB/trust=%v", size>>20, trust)
			b.Run(name, func(b *testing.B) {
				sys, err := core.NewSystem(core.Config{DevSize: benchDev, Cost: costmodel.Default()})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				res, err := sharing.ArckWrite(sys, size, trust, b.N)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.GiBps, "GiB/s")
			})
		}
	}
	b.Run("nova/64MB", func(b *testing.B) {
		res, err := sharing.NovaWrite(costmodel.Default(), benchDev, 64<<20, b.N)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GiBps, "GiB/s")
	})
}

func BenchmarkTable4SharedCreate(b *testing.B) {
	for _, batch := range []int{10, 100} {
		for _, trust := range []bool{false, true} {
			b.Run(fmt.Sprintf("batch%d/trust=%v", batch, trust), func(b *testing.B) {
				// Inode capacity sized for the largest b.N the fast
				// trust-group variant reaches within the bench budget.
				sys, err := core.NewSystem(core.Config{DevSize: 512 << 20, InodeCap: 1 << 19, Cost: costmodel.Default()})
				if err != nil {
					b.Fatal(err)
				}
				turns := b.N/batch + 1
				b.ResetTimer()
				res, err := sharing.ArckCreate(sys, batch, turns, trust)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MicrosPerOp, "µs/create")
			})
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
