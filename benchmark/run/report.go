package main

import (
	"fmt"
	"path/filepath"
	"sort"

	"arckfs/benchmark/workload"
)

// stat is a metric over repetitions: Median is the reported value, min, max
// and the count are printed beside it.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func statOf(v []float64) stat {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return stat{Median: s[len(s)/2], Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// e2eReport is one workload's end-to-end result over its repetitions.
type e2eReport struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	OpsPerRep int             `json:"ops_per_rep"`
	Metrics   map[string]stat `json:"metrics"`
	// PerOp holds the counter-derived per-layer metrics of the same
	// repetitions; Inexact names those that differed between repetitions.
	PerOp     map[string]stat    `json:"per_op"`
	Inexact   []string           `json:"inexact,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Correct   bool               `json:"correct"`
	Disturbed int                `json:"disturbed_reps"`
	Reps      []*workload.Result `json:"reps"`
}

// measureE2E runs o.reps timed repetitions of every spec, round-robin
// across the workloads so that a burst of host noise does not land on one.
func measureE2E(o options, specs []workload.Spec) (map[string]*e2eReport, error) {
	out := map[string]*e2eReport{}
	for _, spec := range specs {
		out[spec.Name] = &e2eReport{
			Workload:  spec.Name,
			Seed:      o.seed,
			OpsPerRep: spec.OpsFor(o.seconds / float64(o.reps)),
			Correct:   true,
		}
	}
	for rep := 0; rep < o.reps; rep++ {
		for _, spec := range specs {
			r := out[spec.Name]
			res, err := repetition(workload.Config{Workload: spec.Name, Seed: o.seed, Ops: r.OpsPerRep, Costs: true, SHA: o.sha})
			if err != nil {
				return nil, err
			}
			r.Reps = append(r.Reps, res)
		}
	}
	for _, r := range out {
		r.aggregate()
	}
	return out, nil
}

func (r *e2eReport) aggregate() {
	e2e, perOp := map[string][]float64{}, map[string][]float64{}
	for _, res := range r.Reps {
		for k, v := range res.E2E {
			e2e[k] = append(e2e[k], v)
		}
		for k, v := range res.PerOp {
			perOp[k] = append(perOp[k], v)
		}
		r.Attempted += res.Attempted
		r.Failed += res.Failed
		r.Correct = r.Correct && res.Correct
		if res.Disturbed {
			r.Disturbed++
		}
	}
	r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	r.Metrics, r.PerOp = map[string]stat{}, map[string]stat{}
	for k, v := range e2e {
		r.Metrics[k] = statOf(v)
	}
	for k, v := range perOp {
		r.PerOp[k] = statOf(v)
		if s := r.PerOp[k]; s.Min != s.Max && !workload.TimingDependent[k] {
			r.Inexact = append(r.Inexact, k)
		}
	}
	sort.Strings(r.Inexact)
}

// contractMetrics renders the end-to-end medians for the result line.
func (r *e2eReport) contractMetrics() map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range workload.EndToEnd {
		v := r.Metrics[m.Name].Median
		out[m.Name] = metricValue{Value: &v, Unit: m.Unit}
	}
	return out
}

func printE2E(r *e2eReport) {
	fmt.Printf("\n== %s: end to end (seed %d, %d ops per repetition, cost model on) ==\n", r.Workload, r.Seed, r.OpsPerRep)
	fmt.Printf("%-22s %-6s %14s %14s %14s %3s  %s\n", "metric", "unit", "median", "min", "max", "n", "regression bound")
	row := func(m workload.Metric, bound string) {
		s := r.Metrics[m.Name]
		fmt.Printf("%-22s %-6s %14.4f %14.4f %14.4f %3d  %s\n", m.Name, m.Unit, s.Median, s.Min, s.Max, s.N, bound)
	}
	for _, m := range workload.HostClock {
		row(m, "none: host clock, informational")
	}
	for _, m := range workload.EndToEnd {
		row(m, fmt.Sprintf("%.0f %%", m.Bound*100))
	}
	fmt.Printf("%-22s %-6s %14.6f   (%d failed of %d attempted)\n", "fail_ratio", "ratio", r.FailRatio, r.Failed, r.Attempted)
	for i, res := range r.Reps {
		note := ""
		if res.Disturbed {
			note = "  DISTURBED"
		}
		fmt.Printf("  rep %d: p99.9 %.1f us over %d samples, cpu/wall %.2f, steal %.3f, spin error %+.0f %%, seq %s%s\n",
			i, res.P999US, res.Samples, res.CPUPerWall, res.StealShare, res.Host.SpinErrorPct, res.SeqHash, note)
		for _, e := range res.Errors {
			fmt.Printf("    failed op: %s\n", e)
		}
		for _, m := range res.Mismatches {
			fmt.Printf("    oracle mismatch: %s\n", m)
		}
	}
	if len(r.Reps) > 0 {
		h := r.Reps[0].Host
		fmt.Printf("  host: nproc %d, GOMAXPROCS %d, GOGC %s, %s, sha %s\n", h.NProc, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.SHA)
	}
	switch {
	case len(r.Inexact) > 0:
		fmt.Printf("  counters that differ between repetitions: %v\n", r.Inexact)
	case len(r.Reps) > 1:
		fmt.Println("  every counter-derived metric is identical across the repetitions (timing-dependent ones excepted)")
	}
	verdict := "passed"
	if !r.Correct {
		verdict = "FAILED"
	}
	fmt.Printf("  correctness and durability checks: %s\n", verdict)
}

// layerReport is one workload's per-layer result.
type layerReport struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Counts    map[string]int         `json:"span_counts"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	// ReaderOnly is lookup_shared's counter delta while only its
	// read-only thread ran.
	ReaderOnly map[string]int64            `json:"reader_only_counters,omitempty"`
	Runs       map[string]*workload.Result `json:"runs"`
}

// measureLayers produces every per-layer metric for one workload: counters
// from one untraced repetition of the timed size; spans from a traced run
// at an eighth of it, cost model on and then off; the tracing overhead from
// an untraced run of that same smaller size; probes and fidelity as given.
func measureLayers(o options, spec workload.Spec, probes map[string]*float64, fid map[string]float64) (*layerReport, error) {
	ops := spec.OpsFor(o.seconds / float64(o.reps))
	small := ops / tracedFraction
	if small < spec.MinOps {
		small = spec.MinOps
	}
	untracedCfg := workload.Config{Workload: spec.Name, Seed: o.seed, Ops: small, Costs: true, SHA: o.sha}
	timedCfg, tracedCfg, swCfg := untracedCfg, untracedCfg, untracedCfg
	timedCfg.Ops = ops
	tracedCfg.Trace, tracedCfg.TracePath = true, filepath.Join(o.out, "trace_"+spec.Name+".json")
	swCfg.Trace, swCfg.TracePath, swCfg.Costs = true, filepath.Join(o.out, "trace_"+spec.Name+"_sw.json"), false
	rep := &layerReport{Workload: spec.Name, Seed: o.seed, Correct: true, Runs: map[string]*workload.Result{}, Counts: map[string]int{}}
	for _, run := range []struct {
		name string
		cfg  workload.Config
	}{{"timed_size", timedCfg}, {"untraced", untracedCfg}, {"traced", tracedCfg}, {"traced_sw", swCfg}} {
		res, err := repetition(run.cfg)
		if err != nil {
			return nil, err
		}
		rep.Runs[run.name] = res
		rep.Attempted += res.Attempted
		rep.Failed += res.Failed
		rep.Correct = rep.Correct && res.Correct
	}
	timed, untraced, traced, sw := rep.Runs["timed_size"], rep.Runs["untraced"], rep.Runs["traced"], rep.Runs["traced_sw"]
	rep.ReaderOnly = timed.ReaderOnly

	values := map[string]*float64{}
	set := func(name string, v float64) { values[name] = &v }
	for k, v := range timed.PerOp {
		set(k, v)
	}
	for _, m := range workload.HostClock {
		set(m.Name, timed.E2E[m.Name])
	}
	nsPer := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}
	for _, m := range workload.SpanMetrics {
		s := traced.Spans[m.Span]
		set(m.Metric, s.MedianNS/nsPer[m.Unit])
		rep.Counts[m.Metric] = s.Count
	}
	for _, m := range workload.SoftwareSpanMetrics {
		s := sw.Spans[m.Span]
		set(m.Metric, s.MedianNS/nsPer[m.Unit])
		rep.Counts[m.Metric] = s.Count
	}
	set("kv.flush_max_ms", traced.Spans["kv.flush"].MaxNS/1e6)
	set("kv.scan_ms", timed.KVScanMS)
	set("kv.tables_end", float64(timed.KVTablesEnd))
	set("fsapi.trace_overhead_pct", (untraced.E2E["ops_per_s"]-traced.E2E["ops_per_s"])/untraced.E2E["ops_per_s"]*100)
	for k, v := range probes {
		values[k] = v
	}
	for k, v := range fid {
		set(k, v)
	}

	rep.Metrics = map[string]metricValue{}
	for _, m := range workload.PerLayer() {
		rep.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return rep, nil
}

func printLayers(r *layerReport) {
	t := r.Runs["traced"]
	fmt.Printf("\n== %s: per layer (seed %d; counters over %d ops, spans over %d traced ops) ==\n",
		r.Workload, r.Seed, r.Runs["timed_size"].Attempted, t.Attempted)
	fmt.Printf("%-40s %-6s %16s %9s\n", "metric", "unit", "value", "spans")
	for _, m := range workload.PerLayer() {
		v, count := "null", ""
		if p := r.Metrics[m.Name].Value; p != nil {
			v = fmt.Sprintf("%.4f", *p)
		}
		if n, ok := r.Counts[m.Name]; ok {
			count = fmt.Sprint(n)
		}
		note := ""
		if paper, ok := workload.PaperFidelity[m.Name]; ok {
			note = fmt.Sprintf("   (paper: %.1f)", paper)
		}
		fmt.Printf("%-40s %-6s %16s %9s%s\n", m.Name, m.Unit, v, count, note)
	}
	fmt.Printf("  generator overhead (self time of the timed span): %.1f ns per op\n", t.GeneratorNS/float64(t.Attempted))
	if r.ReaderOnly != nil {
		fmt.Printf("  read-only thread alone (warm-up): pmem.flushes %d, pmem.ntstores %d, pmem.fences %d, syscalls %d, htable.read_locks %d\n",
			r.ReaderOnly["pmem.flushes"], r.ReaderOnly["pmem.ntstores"], r.ReaderOnly["pmem.fences"], r.ReaderOnly["syscalls"], r.ReaderOnly["htable.read_locks"])
	}
	fmt.Printf("  trace files: %s (cost model on), %s (off)\n", t.Config.TracePath, r.Runs["traced_sw"].Config.TracePath)
	verdict := "passed"
	if !r.Correct {
		verdict = "FAILED"
	}
	fmt.Printf("  correctness and durability checks of the four runs: %s\n", verdict)
}
