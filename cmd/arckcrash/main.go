// Command arckcrash is the crash-consistency checker's CLI: it runs
// campaign rows of internal/crashmc against any system configuration.
// A scripted row is enumerated — every observation point × a bounded
// enumeration of the crash images the persistency model admits there; a
// generated row is looped — seeded workloads, each cut at a random
// fence, a named whitebox killpoint, a checkpoint or mid-recovery, with
// optional device lie modes (-faults) that drop flushes, break fences,
// or tear lines. Every recovered image is verified against an
// incrementally-maintained expected-state oracle.
//
// Usage:
//
//	arckcrash [-iters N] [-seed S] [-ops N] [-configs a,b] [-artifacts dir] [-v]
//	arckcrash -system arck|nova|pmfs|kucofs [-bugs hex] [-faults modes] [-tenants N] ...
//	arckcrash -replay artifact.json
//	arckcrash -killpoints
//
// With no -system, the standard campaign (crashmc.Campaign) runs:
// ArckFS+ and the baseline soak must stay clean, each buggy or lying
// row must breach its expected invariants, and — when the whole
// campaign runs — every registered killpoint site must have killed at
// least one iteration. -configs filters the campaign by name. Every
// breach writes a replayable artifact into $ARCK_FLIGHT_DIR (default
// artifacts/); -replay re-runs one deterministically. Exit status 1 on
// any oracle mismatch or unreached site.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"arckfs/internal/crashmc"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
)

func main() {
	iters := flag.Int("iters", 40, "loop iterations per generated row")
	seed := flag.Int64("seed", 1, "campaign seed (iteration seeds derive from it)")
	ops := flag.Int("ops", 48, "generated workload ops per iteration")
	configs := flag.String("configs", "", "comma-separated campaign row names (default: all)")
	system := flag.String("system", "", "ad-hoc mode: loop one row against this system (arck, nova, pmfs, kucofs)")
	bugs := flag.Uint("bugs", 0, "ad-hoc mode: injected LibFS bug set (hex bitmask, arck only)")
	tenants := flag.Int("tenants", 0, "ad-hoc mode: run the workload round-robin across N LibFS tenants with ownership handoffs (arck only)")
	faults := flag.String("faults", "", "device lie modes: none, drop-flush, drop-fence, torn-line (comma mix)")
	artifacts := flag.String("artifacts", "", "breach artifact directory (default $ARCK_FLIGHT_DIR or artifacts/)")
	replay := flag.String("replay", "", "replay a breach artifact and exit")
	killpoints := flag.Bool("killpoints", false, "list whitebox killpoint sites and exit")
	verbose := flag.Bool("v", false, "print each breach with its detail")
	flag.Parse()

	if *killpoints {
		for _, s := range pmem.KillpointSites() {
			fmt.Println(s)
		}
		return
	}
	if *replay != "" {
		runReplay(*replay)
		return
	}

	cfgs := crashmc.Campaign()
	sweep := *system == "" && *configs == ""
	if *system != "" {
		fm, err := pmem.ParseFaultModes(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		name := *system
		if fm != pmem.FaultsNone {
			name += "+" + fm.String()
		}
		if *tenants > 1 {
			name += fmt.Sprintf("+t%d", *tenants)
		}
		cfgs = []crashmc.Config{{
			Name:    name,
			System:  *system,
			Bugs:    libfs.Bugs(*bugs),
			Faults:  fm,
			Tenants: *tenants,
		}}
	} else if *faults != "" {
		fmt.Fprintln(os.Stderr, "-faults requires -system (campaign rows fix their own fault modes)")
		os.Exit(2)
	} else if *configs != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*configs, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var filtered []crashmc.Config
		for _, c := range cfgs {
			if want[c.Name] {
				filtered = append(filtered, c)
				delete(want, c.Name)
			}
		}
		if len(want) > 0 {
			var unknown []string
			for n := range want {
				unknown = append(unknown, n)
			}
			fmt.Fprintf(os.Stderr, "unknown config(s): %v\n", unknown)
			os.Exit(2)
		}
		cfgs = filtered
	}

	fail := false
	var results []*crashmc.Result
	for _, cfg := range cfgs {
		cfg.Iters = *iters
		cfg.Seed = *seed
		cfg.OpsPerIter = *ops
		cfg.ArtifactDir = *artifacts
		if *verbose {
			cfg.Log = os.Stderr
		}
		res, err := crashmc.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res.Summary())
		if !*verbose {
			for _, b := range res.Breaches {
				if b.Artifact != "" {
					fmt.Printf("  breach artifact: %s\n", b.Artifact)
				}
			}
		}
		results = append(results, res)
		if !res.OK() {
			fail = true
		}
	}
	if fail {
		fmt.Println("ORACLE MISS: at least one configuration did not match its expected outcome")
	}
	if sweep {
		// The strict sweep: a registered killpoint no row ever died at is
		// a crash site the campaign silently stopped covering.
		kills := crashmc.SiteKills(results)
		fmt.Print("kills per site:")
		for _, site := range pmem.KillpointSites() {
			fmt.Printf(" %s=%d", site, kills[site])
		}
		fmt.Println()
		if missed := crashmc.Unreached(kills); len(missed) > 0 {
			fmt.Printf("SWEEP MISS: no row died at killpoint(s) %v\n", missed)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
}

func runReplay(path string) {
	b, err := crashmc.LoadBreach(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("replaying %s\n", b)
	out, err := crashmc.Replay(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, rb := range out.Breaches {
		fmt.Printf("  found %s: %s (%s)\n", rb.Invariant, rb.Detail, rb.Crash)
	}
	if !out.Reproduced {
		fmt.Println("NOT REPRODUCED: replay did not re-find the artifact's breach")
		os.Exit(1)
	}
	fmt.Println("reproduced")
}
