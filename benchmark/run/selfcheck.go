package main

import (
	"fmt"
	"math"
	"path/filepath"

	"arckfs/benchmark/workload"
)

// disagreement is one way two sets of runs of the same code differed by
// more than the benchmark allows.
type disagreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Why      string  `json:"why"`
}

// selfcheck measures the end-to-end set twice on the same tree. The two
// medians of every bounded end-to-end metric must agree within the metric's
// own regression bound (the host-clock metrics' differences are printed); on the one-thread workloads the op sequence, the
// modeled clock and every counter that does not depend on wall time must
// repeat exactly, within each set and between them; nothing may fail.
func selfcheck(o options, specs []workload.Spec) error {
	a, err := measureE2E(o, specs)
	if err != nil {
		return err
	}
	b, err := measureE2E(o, specs)
	if err != nil {
		return err
	}
	var bad []disagreement
	spreads := map[string]map[string]float64{}
	for _, spec := range specs {
		ra, rb := a[spec.Name], b[spec.Name]
		printE2E(ra)
		printE2E(rb)
		spreads[spec.Name] = map[string]float64{}
		for _, m := range append(append([]workload.Metric(nil), workload.HostClock...), workload.EndToEnd...) {
			va, vb := ra.Metrics[m.Name].Median, rb.Metrics[m.Name].Median
			rel := math.Abs(vb-va) / va
			spreads[spec.Name][m.Name] = rel
			if m.Bound > 0 && rel > m.Bound {
				bad = append(bad, disagreement{spec.Name, m.Name, va, vb, rel, m.Bound, "medians of two sets differ by more than the bound"})
			}
		}
		for _, r := range []*e2eReport{ra, rb} {
			if r.Failed > 0 || !r.Correct {
				bad = append(bad, disagreement{Workload: spec.Name, Metric: "fail_ratio", A: r.FailRatio, Why: "operations failed or a check did not pass"})
			}
		}
		if spec.Threads > 1 {
			continue
		}
		for _, r := range []*e2eReport{ra, rb} {
			for _, name := range r.Inexact {
				s := r.PerOp[name]
				bad = append(bad, disagreement{Workload: spec.Name, Metric: name, A: s.Min, B: s.Max, Why: "counter differs between repetitions of one set"})
			}
		}
		for name, sa := range ra.PerOp {
			if sb := rb.PerOp[name]; sa.Median != sb.Median && !workload.TimingDependent[name] {
				bad = append(bad, disagreement{Workload: spec.Name, Metric: name, A: sa.Median, B: sb.Median, Why: "counter differs between the two sets"})
			}
		}
		ma, mb := ra.PerOp["modeled_ns_per_op"], rb.PerOp["modeled_ns_per_op"]
		if lo, hi := math.Min(ma.Min, mb.Min), math.Max(ma.Max, mb.Max); hi-lo > workload.ModeledTolerance*lo {
			bad = append(bad, disagreement{Workload: spec.Name, Metric: "modeled_ns_per_op", A: lo, B: hi, RelDiff: (hi - lo) / lo, Bound: workload.ModeledTolerance, Why: "modeled clock does not repeat on a one-thread workload"})
		}
		if ha, hb := ra.Reps[0].SeqHash, rb.Reps[len(rb.Reps)-1].SeqHash; ha != hb {
			bad = append(bad, disagreement{Workload: spec.Name, Metric: "seq_hash", Why: "op sequence differs: " + ha + " vs " + hb})
		}
	}
	fmt.Println("\n== selfcheck: relative difference of the two sets' medians ==")
	for _, spec := range specs {
		for _, m := range workload.HostClock {
			fmt.Printf("%-14s %-20s %7.3f %%   (host clock, no bound)\n", spec.Name, m.Name, spreads[spec.Name][m.Name]*100)
		}
		for _, m := range workload.EndToEnd {
			fmt.Printf("%-14s %-20s %7.3f %%   (bound %4.1f %%)\n", spec.Name, m.Name, spreads[spec.Name][m.Name]*100, m.Bound*100)
		}
	}
	err = writeJSON(filepath.Join(o.out, "selfcheck.json"), map[string]any{
		"seed": o.seed, "seconds": o.seconds, "reps": o.reps, "sha": o.sha,
		"rel_diff": spreads, "disagreements": bad, "set_a": a, "set_b": b,
	})
	if err != nil {
		return err
	}
	for _, d := range bad {
		fmt.Printf("DISAGREE %s %s: %s (a=%g b=%g rel=%.4f bound=%.4f)\n", d.Workload, d.Metric, d.Why, d.A, d.B, d.RelDiff, d.Bound)
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: %d disagreements", len(bad))
	}
	fmt.Println("selfcheck: the two sets agree")
	return nil
}
