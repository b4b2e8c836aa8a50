package fiolike

import (
	"testing"

	"arckfs/internal/baseline"
	"arckfs/internal/core"
	"arckfs/internal/harness"
)

func TestStandardJobsRun(t *testing.T) {
	sys, err := core.NewSystem(core.Config{DevSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	app := sys.NewApp(0, 0)
	for _, job := range StandardJobs(1 << 20) {
		res, err := Run(app, job, 2, 200)
		if err != nil {
			t.Fatalf("%s: %v", job.Name, err)
		}
		if res.Bytes != res.Ops*4096 || res.GiBPerSec() <= 0 {
			t.Fatalf("%s result: %+v", job.Name, res)
		}
	}
}

func TestFioOnPmfs(t *testing.T) {
	fs, err := baseline.New("pmfs", 64<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(fs, Job{Name: "w", Write: true, BlockSize: 4096, FileSize: 256 << 10}, 1, 100)
	if err != nil || res.Ops != 100 {
		t.Fatalf("%+v, %v", res, err)
	}
}

// benchRead drives the 4K sequential read job under the given latency
// sampling setting; compare the two benchmarks to bound the telemetry
// overhead (the PR's acceptance bar is <=5% on this workload).
func benchRead(b *testing.B, sample int) {
	old := harness.LatencySample
	harness.LatencySample = sample
	defer func() { harness.LatencySample = old }()
	sys, err := core.NewSystem(core.Config{DevSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	fs := sys.NewApp(0, 0)
	job := Job{Name: "seq-read-4k", BlockSize: 4096, FileSize: 4 << 20}
	b.ResetTimer()
	res, err := Run(fs, job, 1, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(job.BlockSize))
	_ = res
}

func BenchmarkReadNoTelemetry(b *testing.B)      { benchRead(b, 0) }
func BenchmarkReadSampledTelemetry(b *testing.B) { benchRead(b, 8) }
