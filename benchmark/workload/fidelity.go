package workload

import (
	"fmt"
	"sort"
	"time"

	"arckfs"
)

const (
	fidelityFiles  = 8192
	fidelityRounds = 7
)

// Fidelity measures ArckFS+ against ArckFS on the three operations of the
// paper's Table 2 (open, create, delete), alternating which preset runs
// first, and returns ArckFS+ throughput as a percentage of ArckFS on the
// host clock and on the modeled clock. It states accuracy against the
// paper's 83.3 / 92.8 / 92.2 %; nothing gates on it.
func Fidelity(seed int64) (map[string]float64, error) {
	names := newGen(seed).names("/fid/f", fidelityFiles)
	modes := []arckfs.Mode{arckfs.ModeArckFSPlus, arckfs.ModeArckFS}
	ops := []string{"create", "open", "delete"}
	// nsPerOp[op][mode] collects one host and one modeled value per round.
	host := map[string][2][]float64{}
	modeled := map[string][2][]float64{}
	for round := 0; round < fidelityRounds; round++ {
		for i := range modes {
			mi := (i + round) % 2
			sys, err := arckfs.New(arckfs.Options{Mode: modes[mi], DevSize: 64 << 20, RealisticCosts: true})
			if err != nil {
				return nil, err
			}
			t := sys.NewApp().NewThread(0)
			if err := t.Mkdir("/fid"); err != nil {
				return nil, err
			}
			for _, op := range ops {
				before := sys.Telemetry().Snapshot()
				began := time.Now()
				for _, p := range names {
					var err error
					switch op {
					case "create":
						err = t.Create(p)
					case "open":
						fd, oerr := t.Open(p)
						if err = oerr; err == nil {
							err = t.Close(fd)
						}
					case "delete":
						err = t.Unlink(p)
					}
					if err != nil {
						return nil, fmt.Errorf("fidelity %s %s: %w", op, p, err)
					}
				}
				wall := time.Since(began)
				d := delta(before, sys.Telemetry().Snapshot())
				h, mo := host[op], modeled[op]
				h[mi] = append(h[mi], float64(wall)/fidelityFiles)
				mo[mi] = append(mo[mi], perOp(d, fidelityFiles, 0)[modeledName])
				host[op], modeled[op] = h, mo
			}
		}
	}
	out := map[string]float64{}
	for _, op := range ops {
		// Throughput share = time of ArckFS / time of ArckFS+.
		out["core.plus_vs_arckfs_"+op+"_pct"] = median(host[op][1]) / median(host[op][0]) * 100
		plus, base := median(modeled[op][0]), median(modeled[op][1])
		pct := 100.0 // neither preset pays a modeled cost for this op
		if plus > 0 {
			pct = base / plus * 100
		}
		out["core.plus_vs_arckfs_modeled_"+op+"_pct"] = pct
	}
	return out, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}
