package filebench

import (
	"testing"

	"arckfs/internal/baseline"
	"arckfs/internal/core"
	"arckfs/internal/fsapi"
)

func tinyCfg(p Personality, shared bool) Config {
	return Config{Personality: p, Files: 32, MeanFileSize: 4 << 10, SharedDir: shared}
}

func run(t *testing.T, fs fsapi.FS, cfg Config) {
	t.Helper()
	res, err := Run(fs, cfg, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 100 || res.OpsPerSec() <= 0 {
		t.Fatalf("result: %+v", res)
	}
}

func TestWebproxySharedOnArckFSPlus(t *testing.T) {
	sys, err := core.NewSystem(core.Config{DevSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	run(t, sys.NewApp(0, 0), tinyCfg(Webproxy, true))
}

func TestVarmailSharedOnArckFSPlus(t *testing.T) {
	sys, err := core.NewSystem(core.Config{DevSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	run(t, sys.NewApp(0, 0), tinyCfg(Varmail, true))
}

func TestPrivateDirVariant(t *testing.T) {
	sys, err := core.NewSystem(core.Config{DevSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	run(t, sys.NewApp(0, 0), tinyCfg(Webproxy, false))
}

func TestWebproxyOnNova(t *testing.T) {
	fs, err := baseline.New("nova", 128<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	run(t, fs, tinyCfg(Webproxy, true))
	run(t, fs, tinyCfg(Varmail, true))
}
