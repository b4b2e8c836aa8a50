// Package baseline_test runs the shared conformance suite against every
// file system in the repository, proving the benchmark harness drives
// semantically equivalent implementations.
package baseline_test

import (
	"testing"

	"arckfs/internal/baseline"
	"arckfs/internal/core"
	"arckfs/internal/costmodel"
	"arckfs/internal/fsapi"
	"arckfs/internal/fsapi/fstest"
)

// mustNew formats the named archetype or fails the test.
func mustNew(t testing.TB, name string, size int64, cost *costmodel.Model) *baseline.FS {
	t.Helper()
	fs, err := baseline.New(name, size, cost)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func conformance(t *testing.T, name string) {
	fstest.Run(t, func(t *testing.T) fsapi.FS { return mustNew(t, name, 64<<20, nil) })
}

func TestNovaConformance(t *testing.T)   { conformance(t, "nova") }
func TestPmfsConformance(t *testing.T)   { conformance(t, "pmfs") }
func TestKucofsConformance(t *testing.T) { conformance(t, "kucofs") }

func TestArckFSPlusConformance(t *testing.T) {
	fstest.Run(t, func(t *testing.T) fsapi.FS {
		sys, err := core.NewSystem(core.Config{Mode: core.ArckFSPlus, DevSize: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return sys.NewApp(0, 0)
	})
}

// ArckFS (buggy) is still a working file system when run without the
// adversarial interleavings; the suite exercises the single-thread
// semantics it shares with ArckFS+ (rename is excluded from its
// guarantees, so only the safe subset runs here).
func TestArckFSSingleThreadConformance(t *testing.T) {
	mk := func(t *testing.T) fsapi.FS {
		sys, err := core.NewSystem(core.Config{Mode: core.ArckFS, DevSize: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return sys.NewApp(0, 0)
	}
	t.Run("CreateOpenReadWrite", func(t *testing.T) { fstest.CreateOpenReadWrite(t, mk(t)) })
	t.Run("PathForms", func(t *testing.T) { fstest.PathForms(t, mk(t)) })
}
