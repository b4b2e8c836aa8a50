package fxmark

import (
	"testing"

	"arckfs/internal/baseline"
	"arckfs/internal/core"
	"arckfs/internal/fsapi"
)

func smallCfg() Config {
	return Config{DWTLFileSize: 256 << 10, DirFiles: 16, DataFileSize: 128 << 10}
}

func eachFS(t *testing.T, fn func(t *testing.T, fs fsapi.FS)) {
	t.Helper()
	t.Run("arckfs+", func(t *testing.T) {
		sys, err := core.NewSystem(core.Config{DevSize: 128 << 20})
		if err != nil {
			t.Fatal(err)
		}
		fn(t, sys.NewApp(0, 0))
	})
	t.Run("nova", func(t *testing.T) {
		fs, err := baseline.New("nova", 128<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, fs)
	})
}

// TestAllMetadataWorkloadsRun drives every Table-3 workload for a few
// hundred ops on 2 threads against ArckFS+ and NOVA.
func TestAllMetadataWorkloadsRun(t *testing.T) {
	for _, w := range Metadata {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			eachFS(t, func(t *testing.T, fs fsapi.FS) {
				res, err := RunWorkload(fs, w, 2, 200, smallCfg())
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				if res.Ops != 400 {
					t.Fatalf("ops = %d", res.Ops)
				}
				if res.OpsPerSec() <= 0 {
					t.Fatal("zero throughput")
				}
			})
		})
	}
}

func TestDataWorkloadsRun(t *testing.T) {
	for _, w := range DataOps {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			eachFS(t, func(t *testing.T, fs fsapi.FS) {
				res, err := RunWorkload(fs, w, 2, 100, smallCfg())
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				if res.Bytes != res.Ops*4096 {
					t.Fatalf("bytes = %d", res.Bytes)
				}
			})
		})
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("MWCL"); !ok {
		t.Fatal("MWCL missing")
	}
	if _, ok := ByName("DRBL"); !ok {
		t.Fatal("DRBL missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("bogus workload found")
	}
}
