package experiments

import (
	"fmt"

	"arckfs/internal/bench/fxmark"
	"arckfs/internal/core"
	"arckfs/internal/harness"
	"arckfs/internal/tenancy"
)

// Tenants runs the multi-tenant serving ablation: the tenant-scaling
// sweep (population sizes from cfg.TenantCounts), the measured
// idle-tenant footprint, and the revocation storm. It is ArckFS+-only —
// the baselines have no registration concept — and is not part of
// arckbench "all".
func Tenants(cfg Config) error {
	cfg.fill()
	counts := cfg.TenantCounts
	if len(counts) == 0 {
		counts = []int{16, 128, 1024}
	}
	mkSys := func() (*core.System, error) {
		return core.NewSystem(core.Config{Mode: core.ArckFSPlus, DevSize: cfg.DevSize, Cost: cfg.cost()})
	}

	per, err := tenancy.MeasureIdleFootprint(2048)
	if err != nil {
		return fmt.Errorf("idle footprint: %w", err)
	}
	fmt.Fprintf(cfg.Out, "idle tenant footprint: %.0f B/tenant over 2048 tenants (budget: 8192 B)\n\n", per)

	tbl := harness.Table{
		Title:   "Tenant scaling (8 active workers)",
		Headers: []string{"tenants", "spawn µs/t", "retire µs/t", "active ops/s", "p99 µs"},
	}
	for _, n := range counts {
		sys, err := mkSys()
		if err != nil {
			return err
		}
		res, err := fxmark.Tenants(sys, n)
		if err != nil {
			return fmt.Errorf("tenants@%d: %w", n, err)
		}
		p99 := 0.0
		if res.Active.Lat != nil {
			p99 = float64(res.Active.Lat.P99NS) / 1e3
		}
		tbl.Add(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", res.SpawnMicros),
			fmt.Sprintf("%.1f", res.RetireMicros),
			fmt.Sprintf("%.0f", res.Active.OpsPerSec()),
			fmt.Sprintf("%.1f", p99),
		)
	}
	fmt.Fprint(cfg.Out, tbl.Render())

	stormN := cfg.StormTenants
	if stormN == 0 {
		stormN = 256
	}
	migrations := cfg.StormMigrations
	if migrations == 0 {
		migrations = 4 * stormN
	}
	sys, err := mkSys()
	if err != nil {
		return err
	}
	storm, err := fxmark.RevocationStorm(sys, stormN, migrations)
	if err != nil {
		return fmt.Errorf("storm@%d: %w", stormN, err)
	}
	p99 := 0.0
	if storm.Result.Lat != nil {
		p99 = float64(storm.Result.Lat.P99NS) / 1e3
	}
	fmt.Fprintf(cfg.Out, "revocation storm: %d tenants, %d migrations, %.0f migrations/s, p99 %.1f µs\n",
		storm.Tenants, storm.Migrations, storm.Result.OpsPerSec(), p99)
	return nil
}
