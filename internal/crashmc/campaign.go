package crashmc

import (
	"fmt"
	"time"

	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry/span"
)

// Result summarizes one row's run.
type Result struct {
	Config Config
	Images int // crash images mounted and checked
	// Enumerate driver.
	Points      int // observation points visited
	Exhaustive  int // points enumerated completely
	Sampled     int // points covered by corners + sampling
	Compactions int // directory-log compactions the tracked ops ran
	// Loop driver.
	Iters           int
	Crashes         int            // iterations that crashed and recovered
	Soaks           int            // live-namespace verifications (crash-free endings)
	Sites           map[string]int // kills per whitebox killpoint site
	CompactionKills int            // kills that landed inside a log compaction

	Elapsed  time.Duration
	Breaches []*Breach
}

// Violated reports whether the run breached inv.
func (r *Result) Violated(inv string) bool {
	for _, b := range r.Breaches {
		if b.Invariant == inv {
			return true
		}
	}
	return false
}

// OK reports whether the outcome matches the row's Expect oracle. No
// breach may fall outside Expect. An enumerated row is judged exactly:
// every expected invariant must be violated. A looped row is judged by
// inclusion: a randomized search must find at least one expected breach.
func (r *Result) OK() bool {
	found := map[string]bool{}
	for _, b := range r.Breaches {
		found[b.Invariant] = true
	}
	expected := 0
	for _, inv := range r.Config.Expect {
		if found[inv] {
			expected++
		}
	}
	if expected != len(found) {
		return false
	}
	if r.Config.enumerated() {
		return expected == len(r.Config.Expect)
	}
	return expected > 0 || len(r.Config.Expect) == 0
}

// Summary renders a one-line report for CLI output.
func (r *Result) Summary() string {
	status := "clean"
	oracle := "as expected"
	if !r.OK() {
		oracle = "ORACLE MISMATCH (expected " + fmt.Sprint(r.Config.Expect) + ")"
	}
	if r.Config.enumerated() {
		if n := len(r.Breaches); n > 0 {
			status = fmt.Sprintf("%d counterexample(s)", n)
		}
		return fmt.Sprintf("%-24s points=%-3d images=%-5d exhaustive=%d sampled=%d %s — %s",
			r.Config.Name, r.Points, r.Images, r.Exhaustive, r.Sampled, status, oracle)
	}
	if n := len(r.Breaches); n > 0 {
		status = fmt.Sprintf("%d breach(es)", n)
	}
	if r.CompactionKills > 0 {
		status += fmt.Sprintf(", %d kill(s) inside a compaction", r.CompactionKills)
	}
	return fmt.Sprintf("%-16s iters=%-4d crashes=%-4d images=%-4d soaks=%-4d %s — %s",
		r.Config.Name, r.Iters, r.Crashes, r.Images, r.Soaks, status, oracle)
}

// Run executes one row under the driver its workload selects and writes
// a replayable artifact for every breach.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	start := time.Now()
	var res *Result
	var err error
	if cfg.enumerated() {
		if res, err = enumerate(cfg, nil); err == nil {
			for i, b := range res.Breaches {
				res.Breaches[i] = shrinkOps(cfg, b)
			}
		}
	} else {
		res, err = loop(cfg)
	}
	if err != nil {
		return nil, err
	}
	for _, b := range res.Breaches {
		if !cfg.NoArtifacts {
			name := fmt.Sprintf("arckcrash-%s-seed%d-iter%d-%s", cfg.Name, cfg.Seed, b.Iter, b.Invariant)
			if b.Artifact, err = span.WriteArtifact(cfg.ArtifactDir, name, b); err != nil {
				return nil, fmt.Errorf("crashmc %s: writing breach artifact: %v", cfg.Name, err)
			}
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "BREACH %s\n", b)
			if b.Artifact != "" {
				fmt.Fprintf(cfg.Log, "       artifact: %s\n", b.Artifact)
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// loopWarmup is the default pre-tracking script of a looped row: two
// directories and one long-named file, so every iteration starts with a
// populated, released namespace.
func loopWarmup() []Op {
	return []Op{
		{Kind: OpMkdir, Path: "/w0"},
		{Kind: OpMkdir, Path: "/w1"},
		{Kind: OpCreate, Path: "/wseed" + longName},
	}
}

// Campaign returns the standard rows, each with its Expect oracle.
//
// The enumerated rows script their workloads. Two pairs are the
// engine's own acceptance test:
//
//   - create-commit/arckfs must rediscover the §4.2 missing-fence bug
//     as an I2 violation (a valid commit marker persisted over a torn
//     body), and create-commit/arckfs+ must be clean;
//   - reserve-scan/arckfs must rediscover the reserveDentry
//     record-length hole arcklint found statically in PR 3 as an I3
//     violation (a dead reserved slot whose unflushed length reads 0,
//     terminating the log scan before a kernel-verified entry), and
//     reserve-scan/arckfs+ must be clean.
//
// Both are found from their bug flags alone — the workloads encode no
// knowledge of which lines or offsets matter. Names span multiple cache
// lines (DentryRecLen > 64) so a torn record is physically expressible:
// the commit marker shares the record's first line, and only name bytes
// spilling into later lines can persist independently of it.
//
// The looped rows search with generated workloads:
//
//   - Honest-device injectable bugs: missing-fence must re-find the
//     §4.2 torn commit (I2) and reserve-len the reserveDentry hole (I3),
//     again from their flags alone; arckfs-plus must stay clean over the
//     same generator.
//   - Lying devices against the *patched* system: drop-flush and
//     drop-fence surface torn commits and verified-state loss on
//     ArckFS+ (I2/I3) even though crash-only enumeration proves it
//     clean, and torn-line surfaces mid-line marker tears (I2) that
//     break the honest model's per-line prefix rule.
//   - tenant-storm runs the clean generator round-robin across eight
//     LibFS instances with an ownership handoff at every tenant switch,
//     so crashes land mid-revocation-storm; it must stay as clean as the
//     single-tenant run.
//   - compact-churn puts the enumerated row's churn warmup ahead of the
//     generated ops, so the first release after one more dead slot
//     compacts the root's log and seeded kills land on the compaction's
//     fences and on libfs.compact.swap.
//   - soak-nova: a baseline has no recovery scan to test, so it runs
//     crash-free and must match the oracle's live namespace.
func Campaign() []Config {
	victim := "/victim" + longName
	alpha := "/alpha" + longName
	bravo := "/bravo" + longName
	warm := []Op{{Kind: OpCreate, Path: "/warmup" + longName}}
	create := []Op{{Kind: OpCreate, Path: victim}}
	reserve := []Op{
		{Kind: OpCreate, Path: alpha},
		{Kind: OpCreate, Path: alpha, WantErr: true}, // plants the dead reserved slot
		{Kind: OpCreate, Path: bravo},
		{Kind: OpRelease},
	}
	mixed := []Op{
		{Kind: OpMkdir, Path: "/dir"},
		{Kind: OpCreate, Path: "/dir/file" + longName},
		{Kind: OpWrite, Path: "/dir/file" + longName, Size: 300},
		{Kind: OpRelease},
		{Kind: OpRename, Path: "/dir/file" + longName, Path2: "/dir/moved" + longName},
		{Kind: OpTruncate, Path: "/dir/moved" + longName, Size: 64},
		{Kind: OpCreate, Path: "/doomed" + longName},
		{Kind: OpUnlink, Path: "/doomed" + longName},
		{Kind: OpRelease},
	}
	// Churn the root to one dead slot short of a compaction, then tip it
	// over inside the tracked window: the second release rewrites the log
	// with the keepers — verified, multi-line records — in the pages it
	// replaces.
	churnWarm := append([]Op(nil), warm...)
	for i := 0; i < 6; i++ {
		churnWarm = append(churnWarm, Op{Kind: OpCreate, Path: fmt.Sprintf("/keeper%d%s", i, longName)})
	}
	for i := 0; i < libfs.CompactMinDeadSlots-1; i++ {
		p := fmt.Sprintf("/churn%03d", i)
		churnWarm = append(churnWarm, Op{Kind: OpCreate, Path: p}, Op{Kind: OpUnlink, Path: p})
	}
	compact := []Op{
		{Kind: OpCreate, Path: "/doomed" + longName},
		{Kind: OpUnlink, Path: "/doomed" + longName},
		{Kind: OpRelease},
	}
	torn, lost := InvNoTornCommit, InvVerifiedDurable
	return []Config{
		{Name: "create-commit/arckfs", Bugs: libfs.BugMissingFence, Warmup: warm, Ops: create, Expect: []string{torn}},
		{Name: "create-commit/arckfs+", Warmup: warm, Ops: create},
		{Name: "marker-window/arckfs", Bugs: libfs.BugMissingFence, Interleave: "marker-window", Warmup: warm, Ops: create, Expect: []string{torn}},
		{Name: "marker-window/arckfs+", Interleave: "marker-window", Warmup: warm, Ops: create},
		{Name: "reserve-scan/arckfs", Bugs: libfs.BugAuxCoreRace | libfs.BugReserveLenUnflushed, Warmup: warm, Ops: reserve, Expect: []string{lost}},
		{Name: "reserve-scan/arckfs+", Warmup: warm, Ops: reserve},
		{Name: "mixed-ops/arckfs+", Warmup: warm, Ops: mixed},
		// Release-time log compaction: every crash image at the
		// chain-durable fence and at the head-publish fence must mount,
		// repair clean and still resolve every verified path — the old
		// chain or the new one, never a mixture.
		{Name: "compact-churn/arckfs+", Warmup: churnWarm, Ops: compact},

		{Name: "arckfs-plus"},
		{Name: "tenant-storm", Tenants: 8},
		{Name: "missing-fence", Bugs: libfs.BugMissingFence, Expect: []string{torn, lost}},
		{Name: "reserve-len", Bugs: libfs.BugAuxCoreRace | libfs.BugReserveLenUnflushed, Expect: []string{lost}},
		{Name: "lie-drop-flush", Faults: pmem.FaultDropFlush, Expect: []string{torn, lost}},
		{Name: "lie-drop-fence", Faults: pmem.FaultDropFence, Expect: []string{torn, lost}},
		{Name: "lie-torn-line", Faults: pmem.FaultTearLine, Expect: []string{torn, lost}},
		{Name: "compact-churn", Warmup: churnWarm},
		{Name: "soak-nova", System: "nova"},
	}
}
