package experiments

import (
	"strings"
	"testing"
)

// tiny returns a config that exercises every code path in seconds.
func tiny(out *strings.Builder) Config {
	return Config{
		Systems:  []string{"arckfs", "arckfs+", "nova"},
		Threads:  []int{1, 2},
		TotalOps: 400,
		DevSize:  96 << 20,
		Trials:   1,
		Out:      out,
	}
}

func TestFigure3Smoke(t *testing.T) {
	var out strings.Builder
	if err := Figure3(tiny(&out)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 3", "open", "create", "delete", "arckfs+/arckfs"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestFigure4AndTable2Smoke(t *testing.T) {
	var out strings.Builder
	cfg := tiny(&out)
	series, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 12 {
		t.Fatalf("got %d workload series", len(series))
	}
	if err := Table2(cfg, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "geomean") {
		t.Fatal("Table 2 missing geomean")
	}
}

func TestDataScaleSmoke(t *testing.T) {
	var out strings.Builder
	if err := DataScale(tiny(&out)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DRBL") || !strings.Contains(out.String(), "fio") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestFilebenchSmoke(t *testing.T) {
	var out strings.Builder
	if err := Filebench(tiny(&out)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "webproxy") || !strings.Contains(s, "varmail") {
		t.Fatalf("output:\n%s", s)
	}
}

func TestLevelDBSmoke(t *testing.T) {
	var out strings.Builder
	if err := LevelDB(tiny(&out)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fillseq") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestTable4Smoke(t *testing.T) {
	var out strings.Builder
	if err := Table4(tiny(&out), 2<<20, 8<<20, 30, 4); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "4KB-write") || !strings.Contains(s, "Create 10") {
		t.Fatalf("output:\n%s", s)
	}
}

func TestMakeFSUnknown(t *testing.T) {
	if _, err := MakeFS("zfs", 1<<20, nil); err == nil {
		t.Fatal("unknown FS accepted")
	}
}
