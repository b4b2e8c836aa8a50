// Command run is the repo benchmark's one entry point (see ../README.md).
//
//	run                          all five workloads, traced runs, probes
//	run -workload W -trace 0     W's end-to-end metrics, median of -reps children
//	run -workload W -trace 1     W's per-layer metrics (counters, spans, probes)
//	run -selfcheck               the end-to-end set twice, compared with its own bounds
//
// Each (workload, repetition) runs in a child process of this same binary,
// with GOMAXPROCS and GOGC pinned, so every repetition has a fresh heap and
// a fresh cost-model calibration. With -workload the last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"arckfs/benchmark/workload"
)

const (
	childGOMAXPROCS = "2"   // the host's core count when the benchmark was defined
	childGOGC       = "400" // as cmd/arckbench sets it
	childTimeout    = 150 * time.Second
	tracedFraction  = 8 // traced runs execute 1/8 of the timed op count
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	reps      int
	selfcheck bool
	sha       string
	probes    string
	out       string
}

func main() {
	var o options
	child := flag.String("child", "", "internal: run one repetition described by this JSON config")
	fidelity := flag.Bool("fidelity-child", false, "internal: run the ArckFS+ vs ArckFS comparison")
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with the one-line JSON result")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated op sequences, names and offsets")
	flag.Float64Var(&o.seconds, "seconds", 10, "nominal timed seconds per workload, split over the repetitions; fixes the op counts")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.reps, "reps", 3, "timed repetitions (child processes) per workload")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end set twice and compare it with its own bounds")
	flag.StringVar(&o.sha, "sha", "unknown", "commit being measured, recorded in every result")
	flag.StringVar(&o.probes, "probes", "", "path of the built benchmark/probes binary (run.sh passes it)")
	flag.StringVar(&o.out, "out", "out", "directory for result and trace files")
	flag.Parse()

	switch {
	case *child != "":
		os.Exit(runChild(*child))
	case *fidelity:
		os.Exit(runFidelityChild(o.seed))
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.reps < 1 || o.seconds <= 0 {
		return fmt.Errorf("need -reps >= 1 and -seconds > 0")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	specs := workload.Specs
	if o.workload != "" {
		spec, ok := workload.SpecByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []workload.Spec{spec}
	}
	switch {
	case o.selfcheck:
		return selfcheck(o, specs)
	case o.workload != "" && o.trace == 1:
		rep, err := measureLayers(o, specs[0], probeLayers(o), fidelityLayers(o))
		if err != nil {
			return err
		}
		printLayers(rep)
		if err := writeJSON(filepath.Join(o.out, "layers_"+rep.Workload+".json"), rep); err != nil {
			return err
		}
		return emit(rep.Correct, rep.Attempted, rep.Failed, rep.Metrics)
	case o.workload != "":
		rep, err := measureE2E(o, specs)
		if err != nil {
			return err
		}
		r := rep[o.workload]
		printE2E(r)
		if err := writeJSON(filepath.Join(o.out, "e2e_"+r.Workload+".json"), r); err != nil {
			return err
		}
		return emit(r.Correct, r.Attempted, r.Failed, r.contractMetrics())
	}
	return full(o, specs)
}

// full is the command without arguments: every workload's end-to-end
// metrics, then every workload's per-layer metrics.
func full(o options, specs []workload.Spec) error {
	e2e, err := measureE2E(o, specs)
	if err != nil {
		return err
	}
	probes, fid := probeLayers(o), fidelityLayers(o)
	ok := true
	report := map[string]any{"options": fmt.Sprintf("%+v", o)}
	for _, spec := range specs {
		layers, err := measureLayers(o, spec, probes, fid)
		if err != nil {
			return err
		}
		printE2E(e2e[spec.Name])
		printLayers(layers)
		ok = ok && e2e[spec.Name].Correct && layers.Correct
		report[spec.Name] = map[string]any{"end_to_end": e2e[spec.Name], "per_layer": layers}
	}
	if err := writeJSON(filepath.Join(o.out, "report.json"), report); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("a correctness or durability check failed (see above)")
	}
	fmt.Println("all correctness and durability checks passed")
	return nil
}

// runChild executes one repetition and prints its Result as JSON.
func runChild(config string) int {
	var cfg workload.Config
	if err := json.Unmarshal([]byte(config), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad config:", err)
		return 2
	}
	res, err := workload.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

func runFidelityChild(seed int64) int {
	res, err := workload.Fidelity(seed)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark fidelity child:", err)
		return 1
	}
	return 0
}

// spawn runs path with args under the pinned runtime settings, waits for
// it (killing it at the timeout), and decodes its standard output into v.
func spawn(path string, args []string, v any) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+childGOMAXPROCS, "GOGC="+childGOGC)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v: %w", filepath.Base(path), args, err)
	}
	return json.Unmarshal(stdout.Bytes(), v)
}

// repetition runs one workload repetition in a child of this binary.
func repetition(cfg workload.Config) (*workload.Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var res workload.Result
	if err := spawn(self, []string{"-child", string(b)}, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// probeLayers runs the probes subprocess. Any failure — not built, a panic
// after an API change — leaves its metrics null and says so; nothing else
// is affected.
func probeLayers(o options) map[string]*float64 {
	out := map[string]*float64{}
	if o.probes == "" {
		fmt.Fprintln(os.Stderr, "benchmark: no -probes binary (benchmark/run.sh builds and passes it): probe metrics are null")
		return out
	}
	if err := spawn(o.probes, nil, &out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: probes failed, their metrics are null:", err)
		return map[string]*float64{}
	}
	return out
}

// fidelityLayers runs the ArckFS+ vs ArckFS comparison in a child.
func fidelityLayers(o options) map[string]float64 {
	out := map[string]float64{}
	self, err := os.Executable()
	if err == nil {
		err = spawn(self, []string{"-fidelity-child", "-seed", fmt.Sprint(o.seed)}, &out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: fidelity comparison failed, its metrics are null:", err)
	}
	return out
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// emit prints the one-line JSON result the benchmark contract asks for.
func emit(correct bool, attempted, failed int, metrics map[string]metricValue) error {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !correct {
		return fmt.Errorf("a correctness or durability check failed (see above)")
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
