package workload

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"arckfs"
)

// miniature returns a small configuration of a one-thread workload, cost
// model off so the test is fast.
func miniature(name string, seed int64) Config {
	spec, _ := SpecByName(name)
	return Config{Workload: name, Seed: seed, Ops: spec.MinOps}
}

// measured runs set-up, warm-up and the timed region, without the checks.
func measured(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.measure()
	if r.res.Failed != 0 {
		t.Fatalf("%s: %d operations failed: %v", cfg.Workload, r.res.Failed, r.res.Errors)
	}
	return r.res
}

func TestSameSeedSameSequenceAndCounters(t *testing.T) {
	for _, spec := range Specs {
		if spec.Threads != 1 {
			continue
		}
		a := measured(t, miniature(spec.Name, 7))
		b := measured(t, miniature(spec.Name, 7))
		c := measured(t, miniature(spec.Name, 8))
		if a.SeqHash != b.SeqHash {
			t.Errorf("%s: same seed, different op sequences: %s vs %s", spec.Name, a.SeqHash, b.SeqHash)
		}
		if a.SeqHash == c.SeqHash {
			t.Errorf("%s: seeds 7 and 8 produced the same op sequence %s", spec.Name, a.SeqHash)
		}
		for name, va := range a.PerOp {
			if vb := b.PerOp[name]; va != vb && !TimingDependent[name] {
				t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", spec.Name, name, va, vb)
			}
		}
		if ma, mb := a.E2E[modeledName], b.E2E[modeledName]; math.Abs(ma-mb) > ModeledTolerance*ma {
			t.Errorf("%s: modeled_ns_per_op %v vs %v in two runs of one seed", spec.Name, ma, mb)
		}
	}
}

func TestResultCarriesEveryCounterMetric(t *testing.T) {
	res := measured(t, miniature("meta_churn", 1))
	for _, m := range counterMetrics {
		if _, ok := res.PerOp[m.Metric]; !ok {
			t.Errorf("per-op metrics lack %s", m.Metric)
		}
	}
	var sum float64
	for _, term := range costTerms {
		v, ok := res.PerOp[term]
		if !ok {
			t.Errorf("per-op metrics lack %s", term)
		}
		sum += v
	}
	if got := res.E2E[modeledName]; got != sum || got <= 0 {
		t.Errorf("modeled_ns_per_op = %v, its terms sum to %v", got, sum)
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables the
// runner emits from to each other, and both to the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if n := len(file.Workloads); n < 2 || n > 8 || len(file.EndToEnd) > 16 || len(file.PerLayer) > 128 {
		t.Errorf("counts out of range: %d workloads, %d end-to-end, %d per-layer", n, len(file.EndToEnd), len(file.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(file.Workloads) != len(Specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, Specs has %d", len(file.Workloads), len(Specs))
	}
	for i, w := range file.Workloads {
		use(w.Name)
		if w.Name != Specs[i].Name || w.Why != Specs[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json %q differs from Specs %q (or why is over 200 characters)", i, w.Name, Specs[i].Name)
		}
	}
	var e2e []Metric
	for _, m := range file.EndToEnd {
		use(m.Name)
		e2e = append(e2e, Metric{m.Name, m.Unit, m.Better, m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, EndToEnd) {
		t.Errorf("end_to_end differs:\n file   %v\n tables %v", e2e, EndToEnd)
	}
	var layers []Metric
	for _, m := range file.PerLayer {
		use(m.Name)
		layers = append(layers, Metric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(layers, PerLayer()) {
		t.Errorf("per_layer differs:\n file   %v\n tables %v", layers, PerLayer())
	}
}

// TestOracleCatchesCorruptedImage flips one data byte in the image a run
// ends with and requires the oracle to notice it after recovery — and to
// stay silent on the untouched image.
func TestOracleCatchesCorruptedImage(t *testing.T) {
	r, err := start(miniature("lookup_shared", 3))
	if err != nil {
		t.Fatal(err)
	}
	r.measure()
	w := r.w.(*lookupShared)
	if err := r.env.app.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	img := r.env.sys.Image()

	check := func(img []byte) int {
		sys, _, err := arckfs.Recover(img, arckfs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var m mismatches
		w.check(sys.NewApp(), &m)
		return m.n
	}
	if n := check(img); n != 0 {
		t.Fatalf("oracle reports %d mismatches on the untouched image", n)
	}
	tag := make([]byte, 8)
	binary.LittleEndian.PutUint64(tag, w.tags[lookupFiles/2])
	at := bytes.Index(img, tag)
	if at < 0 {
		t.Fatal("the block's tag is not in the image")
	}
	img[at+100] ^= 0xff
	if n := check(img); n == 0 {
		t.Fatal("oracle missed a flipped byte in a file's data")
	}
}

func TestKVCrashCheckHolds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var m mismatches
		kvCrashCheck(newGen(seed), seed, &m)
		if m.n != 0 {
			t.Errorf("seed %d: %v", seed, m.first)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	res, err := Run(Config{Workload: "handoff", Seed: 1, Ops: 64, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("handoff miniature failed its checks: %v %v", res.Errors, res.Mismatches)
	}
	turn, rel := res.Spans["turn"], res.Spans["libfs.release_all"]
	if turn.Count != 64+warmupOps(64) || rel.Count != turn.Count {
		t.Errorf("turn spans %d, release_all spans %d, want %d each", turn.Count, rel.Count, 64+warmupOps(64))
	}
	if turn.SelfNS <= 0 || turn.SelfNS >= turn.TotalNS || res.GeneratorNS <= 0 {
		t.Errorf("self times out of range: turn self %v of %v, generator %v", turn.SelfNS, turn.TotalNS, res.GeneratorNS)
	}
}
