// Command arckbench regenerates the tables and figures of the ArckFS+
// paper's evaluation against this repository's implementations.
//
// Usage:
//
//	arckbench -exp figure3|figure4|table2|dataScale|fxmark|filebench|leveldb|table4|all \
//	          [-threads 1,2,4,8,16,32,64] [-ops 20000] [-dev 512] [-fast] \
//	          [-systems arckfs,arckfs+,nova,pmfs,kucofs]
//
// The output is the rendered tables. The per-op costs behind them
// (flushes, fences, crossings, lease hits, admission) are deterministic
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
// -storm-migrations). -max-inflight sizes the crossing admission
// scheduler.
//
// Table 1 (the six bugs and their fixes) is reproduced by the test
// suite: go test ./internal/libfs -run TestBug -v
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"

	"arckfs/internal/bench/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: figure3, figure4, table2, dataScale, fxmark, filebench, leveldb, table4, all")
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
	maxInflight := flag.Int("max-inflight", 0, "admission-scheduler slot count (0 = off; -exp tenants defaults to 4)")
	flag.Parse()

	if *exp != "all" && !isKnown(*exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want figure3, figure4, table2, dataScale, fxmark, filebench, leveldb, table4, tenants, or all)\n", *exp)
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
		cfg.MaxInflight = *maxInflight
	}

	run := func(name string, fn func() error) {
		fmt.Printf("=== %s ===\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("figure3") {
		run("figure3", func() error { return experiments.Figure3(cfg) })
	}
	if want("figure4") || want("table2") {
		run("figure4+table2", func() error {
			series, err := experiments.Figure4(cfg)
			if err != nil {
				return err
			}
			return experiments.Table2(cfg, series)
		})
	}
	// fxmark is not part of "all": it re-covers figure4 and dataScale
	// cells and exists for targeted persistence-cost comparisons.
	if *exp == "fxmark" {
		run("fxmark", func() error { return experiments.Fxmark(cfg) })
	}
	// tenants is not part of "all": it measures the multi-tenant serving
	// path (ArckFS+-only), not a paper figure, and 10k-population sweeps
	// deserve their own invocation.
	if *exp == "tenants" {
		run("tenants", func() error { return experiments.Tenants(cfg) })
	}
	if want("dataScale") {
		run("dataScale", func() error { return experiments.DataScale(cfg) })
	}
	if want("filebench") {
		run("filebench", func() error { return experiments.Filebench(cfg) })
	}
	if want("leveldb") {
		run("leveldb", func() error { return experiments.LevelDB(cfg) })
	}
	if want("table4") {
		run("table4", func() error {
			return experiments.Table4(cfg, *smallMB<<20, *bigMB<<20, 400, 20)
		})
	}
}

func isKnown(e string) bool {
	switch e {
	case "figure3", "figure4", "table2", "dataScale", "fxmark", "filebench", "leveldb", "table4", "tenants":
		return true
	}
	return false
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
