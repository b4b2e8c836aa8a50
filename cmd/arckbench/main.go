// Command arckbench regenerates the tables and figures of the ArckFS+
// paper's evaluation against this repository's implementations.
//
// Usage:
//
//	arckbench -exp <experiment>|all \
//	          [-threads 1,2,4,8,16,32,64] [-ops 20000] [-dev 512] [-fast] \
//	          [-systems arckfs,arckfs+,nova,pmfs,kucofs]
//
// arckbench -h lists the experiments (experiments.Experiments). The
// output is the rendered tables. The per-op costs behind them
// (flushes, fences, crossings, lease hits) are deterministic
// and are pinned by go test -run TestCostBounds ./internal/bench/fxmark/,
// which runs small -fast table2, fxmark and tenants cells.
//
// The fxmark experiment additionally runs the MWRA release/reopen
// workload, which exercises the grant leases, and MRSL, the
// shared-directory open/stat/read cell that exercises the lock-free
// read paths.
//
// -exp tenants runs the multi-tenant serving ablation (not part of
// "all"): the tenant-scaling sweep over -tenants population sizes (k
// suffix allowed: "16,128,1k,4k,10k"), the measured idle-tenant
// footprint, and the revocation storm (-storm-tenants /
// -storm-migrations).
//
// Table 1 (the six bugs and their fixes) is reproduced by the test
// suite: go test ./internal/libfs -run TestBug -v
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"arckfs/internal/bench/experiments"
)

func main() {
	names := strings.Join(experiments.Names(), ", ")
	exp := flag.String("exp", "all", "experiment: "+names+", or all")
	threads := flag.String("threads", "1,2,4,8,16,32,64", "comma-separated thread sweep")
	ops := flag.Int("ops", 20000, "total operations per measurement cell")
	dev := flag.Int64("dev", 512, "device size in MiB per instance")
	fast := flag.Bool("fast", false, "disable the calibrated cost model (unit-test speed)")
	systems := flag.String("systems", strings.Join(experiments.AllSystems, ","), "file systems to measure")
	smallMB := flag.Uint64("share-small", 2, "Table 4 small shared-file size (MiB)")
	bigMB := flag.Uint64("share-big", 256, "Table 4 big shared-file size (MiB; paper uses 1024)")
	trials := flag.Int("trials", 3, "best-of-N trials for single-thread cells")
	tenants := flag.String("tenants", "16,128,1k", "tenant population sweep for -exp tenants (k suffix = x1000)")
	stormTenants := flag.Int("storm-tenants", 256, "revocation-storm tenant count for -exp tenants")
	stormMigrations := flag.Int("storm-migrations", 0, "revocation-storm migration count (default 4x tenants)")
	flag.Parse()

	if *exp != "all" && !slices.Contains(experiments.Names(), *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s, or all)\n", *exp, names)
		os.Exit(2)
	}
	tenantCounts, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// GC pauses are the dominant noise source on a small host; the
	// working sets here are bounded, so trade memory for stable numbers.
	debug.SetGCPercent(400)

	var ths []int
	for _, s := range strings.Split(*threads, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "bad thread count %q\n", s)
			os.Exit(2)
		}
		ths = append(ths, v)
	}
	cfg := experiments.Config{
		Systems:   strings.Split(*systems, ","),
		Threads:   ths,
		TotalOps:  *ops,
		DevSize:   *dev << 20,
		Realistic: !*fast,
		Trials:    *trials,
		Out:       os.Stdout,
	}
	if *exp == "tenants" {
		cfg.TenantCounts = tenantCounts
		cfg.StormTenants = *stormTenants
		cfg.StormMigrations = *stormMigrations
	}

	run := func(name string, fn func() error) {
		fmt.Printf("=== %s ===\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	steps := stepsFor(cfg, *smallMB<<20, *bigMB<<20)
	for _, e := range experiments.Experiments {
		if *exp == e.Name || *exp == "all" && e.InAll {
			run(steps[e.Name].label, steps[e.Name].fn)
		}
	}
}

// A step is what one experiment runs, under the header it prints.
type step struct {
	label string
	fn    func() error
}

// stepsFor maps every name in experiments.Experiments to its step.
// figure4 and table2 are one step: Table 2 is derived from Figure 4's
// series.
func stepsFor(cfg experiments.Config, smallBytes, bigBytes uint64) map[string]step {
	fig4 := step{"figure4+table2", func() error {
		series, err := experiments.Figure4(cfg)
		if err != nil {
			return err
		}
		return experiments.Table2(cfg, series)
	}}
	return map[string]step{
		"figure3":   {"figure3", func() error { return experiments.Figure3(cfg) }},
		"figure4":   fig4,
		"table2":    fig4,
		"fxmark":    {"fxmark", func() error { return experiments.Fxmark(cfg) }},
		"tenants":   {"tenants", func() error { return experiments.Tenants(cfg) }},
		"dataScale": {"dataScale", func() error { return experiments.DataScale(cfg) }},
		"filebench": {"filebench", func() error { return experiments.Filebench(cfg) }},
		"leveldb":   {"leveldb", func() error { return experiments.LevelDB(cfg) }},
		"table4": {"table4", func() error {
			return experiments.Table4(cfg, smallBytes, bigBytes, 400, 20)
		}},
	}
}

// parseTenants parses a population sweep like "16,128,1k,4k,10k".
func parseTenants(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		mult := 1
		if n := strings.TrimSuffix(strings.ToLower(part), "k"); n != part {
			mult, part = 1000, n
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad tenant count %q", part)
		}
		out = append(out, v*mult)
	}
	return out, nil
}
