package workload

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"arckfs/internal/costmodel"
)

// Host describes where a child ran, so a surprising host-time number can be
// explained from the output: the core count, the Go version, the commit,
// and how well this process's cost-model calibration hit its target.
type Host struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GOGC         string  `json:"gogc"`
	GoVersion    string  `json:"go_version"`
	SHA          string  `json:"sha"`
	SpinErrorPct float64 `json:"spin_error_pct"`
}

func hostInfo(sha string) Host {
	return Host{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOGC:         os.Getenv("GOGC"),
		GoVersion:    runtime.Version(),
		SHA:          sha,
		SpinErrorPct: spinErrorPct(),
	}
}

// spinErrorPct is how far costmodel.Spin, as calibrated in this process,
// lands from the time it was asked to burn: the median of 9 spins of 50 us.
// costmodel calibrates once per process, so a whole child runs fast or slow
// by this much on its modeled share.
func spinErrorPct() float64 {
	const ask = 50_000
	got := make([]float64, 9)
	for i := range got {
		t := time.Now()
		costmodel.Spin(ask)
		got[i] = float64(time.Since(t))
	}
	sort.Float64s(got)
	return (got[len(got)/2] - ask) / ask * 100
}

// prices returns the cost model the modeled clock is computed with.
func prices() *costmodel.Model { return costmodel.Default() }

// usage is a point-in-time reading of this process's CPU time and peak
// resident set, and of the host's steal ticks.
type usage struct {
	cpu        time.Duration
	maxRSSKiB  int64
	stealTicks int64
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSSKiB = ru.Maxrss
	}
	u.stealTicks = stealTicks()
	return u
}

// stealTicks reads the aggregate steal column of /proc/stat (USER_HZ ticks
// the hypervisor gave to someone else); 0 when unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}
