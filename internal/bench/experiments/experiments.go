// Package experiments regenerates every table and figure of the ArckFS+
// paper's evaluation (§5) against this repository's implementations. The
// cmd/arckbench binary and the repository's benchmarks are thin wrappers
// around it.
package experiments

import (
	"errors"
	"fmt"
	"io"

	"arckfs/internal/baseline"
	"arckfs/internal/bench/filebench"
	"arckfs/internal/bench/fiolike"
	"arckfs/internal/bench/fxmark"
	"arckfs/internal/bench/sharing"
	"arckfs/internal/core"
	"arckfs/internal/costmodel"
	"arckfs/internal/fsapi"
	"arckfs/internal/harness"
	"arckfs/internal/kv"
)

// AllSystems lists every file system the evaluation compares. The
// remaining baselines of the paper (ext4, OdinFS, WineFS, SplitFS,
// Strata) are represented by these archetypes; see ARCHITECTURE.md's
// "What is simulated".
var AllSystems = append([]string{"arckfs", "arckfs+"}, baseline.Names()...)

// An Experiment is one value of cmd/arckbench's -exp flag.
type Experiment struct {
	Name string
	// InAll reports whether -exp all runs it.
	InAll bool
}

// Experiments lists every experiment cmd/arckbench runs, in the order
// -exp all runs them. table2 is derived from figure4's series, so -exp
// all prints it with figure4; fxmark re-covers figure4 and dataScale
// cells for targeted persistence-cost comparisons; tenants measures the
// multi-tenant serving path, not a paper figure.
var Experiments = []Experiment{
	{"figure3", true},
	{"figure4", true},
	{"table2", false},
	{"fxmark", false},
	{"tenants", false},
	{"dataScale", true},
	{"filebench", true},
	{"leveldb", true},
	{"table4", true},
}

// Names returns the names of Experiments, in order.
func Names() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// Config parameterizes a run.
type Config struct {
	// Systems to measure (default AllSystems).
	Systems []string
	// Threads is the scalability sweep (default 1,2,4,8,16,32,64).
	Threads []int
	// TotalOps is the per-cell operation budget, divided across threads.
	TotalOps int
	// DevSize is the simulated device size per instance.
	DevSize int64
	// Realistic enables the calibrated cost model.
	Realistic bool
	// Trials repeats each single-thread cell and keeps the best run,
	// suppressing scheduler noise (default 3 for Figure 3, 1 elsewhere).
	Trials int
	// TenantCounts is the population sweep of the tenants experiment
	// (default 16,128,1024); StormTenants/StormMigrations size its
	// revocation storm (defaults 256 and 4x tenants).
	TenantCounts    []int
	StormTenants    int
	StormMigrations int
	// Out receives rendered tables.
	Out io.Writer
}

func (c *Config) fill() {
	if len(c.Systems) == 0 {
		c.Systems = AllSystems
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if c.TotalOps == 0 {
		c.TotalOps = 20000
	}
	if c.DevSize == 0 {
		c.DevSize = 512 << 20
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

func (c *Config) cost() *costmodel.Model {
	if c.Realistic {
		return costmodel.Default()
	}
	return nil
}

// MakeFS constructs a fresh instance of the named file system.
func MakeFS(name string, devSize int64, cost *costmodel.Model) (fsapi.FS, error) {
	arck := func(mode core.Mode) (fsapi.FS, error) {
		sys, err := core.NewSystem(core.Config{Mode: mode, DevSize: devSize, Cost: cost})
		if err != nil {
			return nil, err
		}
		return sys.NewApp(0, 0), nil
	}
	switch name {
	case "arckfs+":
		return arck(core.ArckFSPlus)
	case "arckfs":
		return arck(core.ArckFS)
	}
	fs, err := baseline.New(name, devSize, cost)
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// makeFS builds the named system under this run's configuration.
func (c *Config) makeFS(name string) (fsapi.FS, error) {
	return MakeFS(name, c.DevSize, c.cost())
}

func opsFor(total, threads int) int {
	ops := total / threads
	if ops < 50 {
		ops = 50
	}
	return ops
}

// Figure3 reproduces the single-thread metadata throughput comparison:
// open, create, delete (plus readdir and rename for completeness).
func Figure3(cfg Config) error {
	cfg.fill()
	rows := []struct {
		label    string
		workload string
	}{
		{"open", "MRPL"},
		{"create", "MWCL"},
		{"delete", "MWUL"},
		{"readdir", "MRDL"},
		{"rename", "MWRL"},
	}
	tbl := harness.Table{
		Title:   "Figure 3: single-thread metadata throughput (ops/sec)",
		Headers: append([]string{"op"}, cfg.Systems...),
	}
	rel := map[string][2]float64{} // workload -> [arckfs, arckfs+]
	for _, row := range rows {
		w, _ := fxmark.ByName(row.workload)
		cells := []string{row.label}
		for _, sysName := range cfg.Systems {
			best := 0.0
			for trial := 0; trial < cfg.Trials; trial++ {
				fs, err := cfg.makeFS(sysName)
				if err != nil {
					return err
				}
				res, err := fxmark.RunWorkload(fs, w, 1, opsFor(cfg.TotalOps, 1), fxmark.Defaults())
				if err != nil {
					return fmt.Errorf("%s/%s: %w", sysName, row.workload, err)
				}
				best = max(best, res.OpsPerSec())
			}
			cells = append(cells, fmt.Sprintf("%.0f", best))
			v := rel[row.label]
			if sysName == "arckfs" {
				v[0] = best
			}
			if sysName == "arckfs+" {
				v[1] = best
			}
			rel[row.label] = v
		}
		tbl.Add(cells...)
	}
	fmt.Fprint(cfg.Out, tbl.Render())
	rt := harness.Table{
		Title:   "Figure 3 companion: ArckFS+ relative to ArckFS (paper: open 83.3%, create 92.8%, delete 92.2%)",
		Headers: []string{"op", "arckfs+/arckfs %"},
	}
	for _, row := range rows {
		v := rel[row.label]
		if v[0] > 0 {
			rt.Add(row.label, fmt.Sprintf("%.1f%%", 100*v[1]/v[0]))
		}
	}
	fmt.Fprint(cfg.Out, rt.Render())
	return nil
}

// Figure4 reproduces the FxMark metadata scalability sweep and returns
// the per-workload series (used by Table 2).
func Figure4(cfg Config) (map[string]*harness.Series, error) {
	cfg.fill()
	out := map[string]*harness.Series{}
	trials := cfg.Trials
	if trials > 2 {
		trials = 2 // the sweep is large; two trials tame the worst noise
	}
	for _, w := range fxmark.Metadata {
		series := harness.NewSeries("Figure 4 — " + w.Name + ": " + w.Desc + " (ops/sec)")
		for _, sysName := range cfg.Systems {
			for _, th := range cfg.Threads {
				best := 0.0
				for trial := 0; trial < trials; trial++ {
					fs, err := cfg.makeFS(sysName)
					if err != nil {
						return nil, err
					}
					res, err := fxmark.RunWorkload(fs, w, th, opsFor(cfg.TotalOps, th), fxmark.Defaults())
					if err != nil {
						return nil, fmt.Errorf("%s/%s@%d: %w", sysName, w.Name, th, err)
					}
					best = max(best, res.OpsPerSec())
				}
				series.Add(sysName, th, best)
			}
		}
		out[w.Name] = series
		fmt.Fprint(cfg.Out, series.Render())
	}
	return out, nil
}

// Fxmark runs the full FxMark suite — the metadata workloads plus the
// lease, lookup and data-operation sweeps — once per (system,
// thread-count) cell and renders ops/sec. Its per-op persistence costs
// are pinned by fxmark.TestCostBounds, which runs the same cells.
func Fxmark(cfg Config) error {
	cfg.fill()
	// Best-of-N like Figure4 (and with the same cap): throughput noise is
	// one-sided — interference only slows a trial down — so the best run
	// is the estimator least moved by the host.
	trials := cfg.Trials
	if trials > 2 {
		trials = 2
	}
	for _, group := range [][]fxmark.Workload{fxmark.Metadata, fxmark.Leases, fxmark.Lookup, fxmark.DataOps} {
		for _, w := range group {
			series := harness.NewSeries("FxMark — " + w.Name + ": " + w.Desc + " (ops/sec)")
			for _, sysName := range cfg.Systems {
				for _, th := range cfg.Threads {
					best := 0.0
					for trial := 0; trial < trials; trial++ {
						fs, err := cfg.makeFS(sysName)
						if err != nil {
							return err
						}
						res, err := fxmark.RunWorkload(fs, w, th, opsFor(cfg.TotalOps, th), fxmark.Defaults())
						if err != nil {
							return fmt.Errorf("%s/%s@%d: %w", sysName, w.Name, th, err)
						}
						best = max(best, res.OpsPerSec())
					}
					series.Add(sysName, th, best)
				}
			}
			fmt.Fprint(cfg.Out, series.Render())
		}
	}
	return nil
}

// Table2 renders ArckFS+'s relative throughput versus ArckFS at the
// highest measured thread count, plus the geometric mean the paper
// reports as 97.23%.
func Table2(cfg Config, series map[string]*harness.Series) error {
	cfg.fill()
	maxTh := cfg.Threads[len(cfg.Threads)-1]
	tbl := harness.Table{
		Title:   fmt.Sprintf("Table 2: ArckFS+ relative to ArckFS at %d threads", maxTh),
		Headers: []string{"workload", "relative %"},
	}
	var rels []float64
	for _, w := range fxmark.Metadata {
		s, ok := series[w.Name]
		if !ok {
			continue
		}
		rel := s.Relative("arckfs+", "arckfs", maxTh)
		if rel > 0 {
			rels = append(rels, rel/100)
		}
		tbl.Add(w.Name, fmt.Sprintf("%.2f%%", rel))
	}
	tbl.Add("geomean", fmt.Sprintf("%.2f%% (paper: 97.23%%)", 100*harness.Geomean(rels)))
	fmt.Fprint(cfg.Out, tbl.Render())
	return nil
}

// DataScale reproduces the data-operation scalability points (§5.1 data,
// §5.2 data + fio).
func DataScale(cfg Config) error {
	cfg.fill()
	for _, w := range fxmark.DataOps {
		series := harness.NewSeries("Data — " + w.Name + ": " + w.Desc + " (GiB/s aggregate)")
		for _, sysName := range cfg.Systems {
			for _, th := range cfg.Threads {
				fs, err := cfg.makeFS(sysName)
				if err != nil {
					return err
				}
				res, err := fxmark.RunWorkload(fs, w, th, opsFor(cfg.TotalOps, th), fxmark.Defaults())
				if err != nil {
					return fmt.Errorf("%s/%s@%d: %w", sysName, w.Name, th, err)
				}
				series.Add(sysName, th, res.GiBPerSec()*1000) // milli-GiB/s for readable ints
			}
		}
		fmt.Fprintln(cfg.Out, "(values in milli-GiB/s)")
		fmt.Fprint(cfg.Out, series.Render())
	}
	// fio sweeps at the largest thread count.
	th := cfg.Threads[len(cfg.Threads)-1]
	tbl := harness.Table{
		Title:   fmt.Sprintf("fio 4K bandwidth at %d threads (milli-GiB/s)", th),
		Headers: append([]string{"job"}, cfg.Systems...),
	}
	for _, job := range fiolike.StandardJobs(4 << 20) {
		cells := []string{job.Name}
		for _, sysName := range cfg.Systems {
			fs, err := cfg.makeFS(sysName)
			if err != nil {
				return err
			}
			res, err := fiolike.Run(fs, job, th, opsFor(cfg.TotalOps, th))
			if err != nil {
				return fmt.Errorf("%s/%s: %w", sysName, job.Name, err)
			}
			cells = append(cells, fmt.Sprintf("%.0f", res.GiBPerSec()*1000))
		}
		tbl.Add(cells...)
	}
	fmt.Fprint(cfg.Out, tbl.Render())
	return nil
}

// Filebench reproduces §5.3: Webproxy and Varmail on the shared-directory
// framework at 1 and 16 threads, with ArckFS+/ArckFS ratios.
func Filebench(cfg Config) error {
	cfg.fill()
	threadPoints := []int{1, 16}
	for _, p := range []filebench.Personality{filebench.Webproxy, filebench.Varmail} {
		tbl := harness.Table{
			Title:   fmt.Sprintf("Filebench %s (shared directory, per-filename locks) ops/sec", p),
			Headers: append([]string{"threads"}, cfg.Systems...),
		}
		ratios := map[int][2]float64{}
		for _, th := range threadPoints {
			cells := []string{fmt.Sprintf("%d", th)}
			for _, sysName := range cfg.Systems {
				fs, err := cfg.makeFS(sysName)
				if err != nil {
					return err
				}
				fcfg := filebench.Defaults(p)
				res, err := filebench.Run(fs, fcfg, th, opsFor(cfg.TotalOps/4, th))
				if err != nil {
					return fmt.Errorf("%s/%s@%d: %w", sysName, p, th, err)
				}
				cells = append(cells, fmt.Sprintf("%.0f", res.OpsPerSec()))
				v := ratios[th]
				if sysName == "arckfs" {
					v[0] = res.OpsPerSec()
				}
				if sysName == "arckfs+" {
					v[1] = res.OpsPerSec()
				}
				ratios[th] = v
			}
			tbl.Add(cells...)
		}
		fmt.Fprint(cfg.Out, tbl.Render())
		for _, th := range threadPoints {
			v := ratios[th]
			if v[0] > 0 {
				fmt.Fprintf(cfg.Out, "%s arckfs+/arckfs @%d threads: %.1f%%\n", p, th, 100*v[1]/v[0])
			}
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// LevelDB reproduces the §5.3 dbbench-style comparison over the LSM
// store.
func LevelDB(cfg Config) error {
	cfg.fill()
	benches := []string{"fillseq", "fillrandom", "readrandom", "readseq"}
	tbl := harness.Table{
		Title:   "LevelDB-style dbbench over the LSM store (ops/sec)",
		Headers: append([]string{"bench"}, cfg.Systems...),
	}
	n := cfg.TotalOps
	if n > 20000 {
		n = 20000
	}
	val := make([]byte, 100)
	rows := map[string][]string{}
	for _, b := range benches {
		rows[b] = []string{b}
	}
	for _, sysName := range cfg.Systems {
		fs, err := cfg.makeFS(sysName)
		if err != nil {
			return err
		}
		db, err := kv.Open(fs, kv.Options{MemtableBytes: 256 << 10})
		if err != nil {
			return err
		}
		key := func(i int) []byte { return []byte(fmt.Sprintf("%016d", i)) }
		for _, b := range benches {
			res := harness.RunCounted(harness.SourceOf(fs), sysName, b, 1, n, func(_, i int) error {
				switch b {
				case "fillseq":
					return db.Put(key(i), val)
				case "fillrandom":
					return db.Put(key((i*2654435761)%n), val)
				case "readrandom":
					_, err := db.Get(key((i * 40503) % n))
					if errors.Is(err, fsapi.ErrNotExist) {
						return nil
					}
					return err
				case "readseq":
					// One full scan counts len ops; run once.
					if i > 0 {
						return nil
					}
					it, err := db.NewIterator()
					if err != nil {
						return err
					}
					for it.Next() {
					}
					return nil
				}
				return nil
			})
			if res.Err != nil {
				return fmt.Errorf("%s/%s: %w", sysName, b, res.Err)
			}
			rows[b] = append(rows[b], fmt.Sprintf("%.0f", res.OpsPerSec()))
		}
	}
	for _, b := range benches {
		tbl.Add(rows[b]...)
	}
	fmt.Fprint(cfg.Out, tbl.Render())
	return nil
}

// Table4 reproduces the sharing-cost experiment.
func Table4(cfg Config, smallFile, bigFile uint64, writeIters, createTurns int) error {
	cfg.fill()
	cost := cfg.cost()
	tbl := harness.Table{
		Title:   "Table 4: sharing cost (paper shape: big shared file collapses ArckFS+ below NOVA; trust group restores it; shared-dir creates cost µs-scale vs sub-µs in a trust group)",
		Headers: []string{"experiment", "nova", "arckfs+", "arckfs+-trust-group"},
	}
	row := func(label string, novaV, plusV, trustV string) {
		tbl.Add(label, novaV, plusV, trustV)
	}
	mkSys := func() (*core.System, error) {
		return core.NewSystem(core.Config{Mode: core.ArckFSPlus, DevSize: cfg.DevSize, Cost: cost})
	}
	for _, size := range []uint64{smallFile, bigFile} {
		nw, err := sharing.NovaWrite(cost, cfg.DevSize, size, writeIters)
		if err != nil {
			return err
		}
		sys, err := mkSys()
		if err != nil {
			return err
		}
		pw, err := sharing.ArckWrite(sys, size, false, writeIters)
		if err != nil {
			return err
		}
		sys, err = mkSys()
		if err != nil {
			return err
		}
		tw, err := sharing.ArckWrite(sys, size, true, writeIters)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("4KB-write %dMB (GiB/s)", size>>20),
			fmt.Sprintf("%.2f", nw.GiBps), fmt.Sprintf("%.2f", pw.GiBps), fmt.Sprintf("%.2f", tw.GiBps))
	}
	for _, batch := range []int{10, 100} {
		nc, err := sharing.NovaCreate(cost, cfg.DevSize, batch, createTurns)
		if err != nil {
			return err
		}
		sys, err := mkSys()
		if err != nil {
			return err
		}
		pc, err := sharing.ArckCreate(sys, batch, createTurns, false)
		if err != nil {
			return err
		}
		sys, err = mkSys()
		if err != nil {
			return err
		}
		tc, err := sharing.ArckCreate(sys, batch, createTurns, true)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("Create %d (µs/op)", batch),
			fmt.Sprintf("%.2f", nc.MicrosPerOp), fmt.Sprintf("%.2f", pc.MicrosPerOp), fmt.Sprintf("%.2f", tc.MicrosPerOp))
	}
	fmt.Fprint(cfg.Out, tbl.Render())
	return nil
}
