package crashmc

import (
	"fmt"

	"arckfs/internal/libfs"
)

// Campaign returns the standard workload configurations, with each
// configuration's Expect oracle. Two pairs are the checker's own
// acceptance test:
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
// knowledge of which lines or offsets matter.
//
// Names span multiple cache lines (DentryRecLen > 64) so a torn record
// is physically expressible: the commit marker shares the record's
// first line, and only name bytes spilling into later lines can persist
// independently of it.
func Campaign() []Config {
	const long = "-0123456789-0123456789-0123456789-0123456789-0123456789"
	victim := "/victim" + long
	alpha := "/alpha" + long
	bravo := "/bravo" + long
	warm := []Op{{Kind: OpCreate, Path: "/warmup" + long}}
	create := []Op{{Kind: OpCreate, Path: victim}}
	reserve := []Op{
		{Kind: OpCreate, Path: alpha},
		{Kind: OpCreate, Path: alpha, WantErr: true}, // plants the dead reserved slot
		{Kind: OpCreate, Path: bravo},
		{Kind: OpRelease},
	}
	mixed := []Op{
		{Kind: OpMkdir, Path: "/dir"},
		{Kind: OpCreate, Path: "/dir/file" + long},
		{Kind: OpWrite, Path: "/dir/file" + long, Size: 300},
		{Kind: OpRelease},
		{Kind: OpRename, Path: "/dir/file" + long, Path2: "/dir/moved" + long},
		{Kind: OpTruncate, Path: "/dir/moved" + long, Size: 64},
		{Kind: OpCreate, Path: "/doomed" + long},
		{Kind: OpUnlink, Path: "/doomed" + long},
		{Kind: OpRelease},
	}
	// Churn the root to one dead slot short of a compaction, then tip it
	// over inside the tracked window: the second release rewrites the log
	// with the keepers — verified, multi-line records — in the pages it
	// replaces.
	churnWarm := append([]Op(nil), warm...)
	for i := 0; i < 6; i++ {
		churnWarm = append(churnWarm, Op{Kind: OpCreate, Path: fmt.Sprintf("/keeper%d%s", i, long)})
	}
	for i := 0; i < libfs.CompactMinDeadSlots-1; i++ {
		p := fmt.Sprintf("/churn%03d", i)
		churnWarm = append(churnWarm, Op{Kind: OpCreate, Path: p}, Op{Kind: OpUnlink, Path: p})
	}
	compact := []Op{
		{Kind: OpCreate, Path: "/doomed" + long},
		{Kind: OpUnlink, Path: "/doomed" + long},
		{Kind: OpRelease},
	}
	return []Config{
		{
			Name:   "create-commit/arckfs",
			Bugs:   libfs.BugMissingFence,
			Warmup: warm,
			Ops:    create,
			Expect: []string{InvNoTornCommit},
		},
		{
			Name:   "create-commit/arckfs+",
			Warmup: warm,
			Ops:    create,
		},
		{
			Name:       "marker-window/arckfs",
			Bugs:       libfs.BugMissingFence,
			Interleave: "marker-window",
			Warmup:     warm,
			Ops:        create,
			Expect:     []string{InvNoTornCommit},
		},
		{
			Name:       "marker-window/arckfs+",
			Interleave: "marker-window",
			Warmup:     warm,
			Ops:        create,
		},
		{
			Name:   "reserve-scan/arckfs",
			Bugs:   libfs.BugAuxCoreRace | libfs.BugReserveLenUnflushed,
			Warmup: warm,
			Ops:    reserve,
			Expect: []string{InvVerifiedDurable},
		},
		{
			Name:   "reserve-scan/arckfs+",
			Warmup: warm,
			Ops:    reserve,
		},
		{
			Name:   "mixed-ops/arckfs+",
			Warmup: warm,
			Ops:    mixed,
		},
		{
			// The locked data plane must be crash-equivalent to the
			// lock-free default: the read discipline changes no write path,
			// so this run must stay clean over the same schedule (and
			// TestSerialDataCrashStatesMatchLockFree pins the state sets as
			// identical, not merely both clean).
			Name:       "mixed-ops/serial-data",
			SerialData: true,
			Warmup:     warm,
			Ops:        mixed,
		},
		{
			// Release-time log compaction: every crash image at the
			// chain-durable fence and at the head-publish fence must mount,
			// repair clean and still resolve every verified path — the old
			// chain or the new one, never a mixture.
			Name:   "compact-churn/arckfs+",
			Warmup: churnWarm,
			Ops:    compact,
		},
	}
}
