package crashmc

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"arckfs/internal/fsapi"
)

// longName pushes DentryRecLen past one cache line, so a record's name
// bytes can persist (or tear) independently of the line holding its
// commit marker — the physical precondition of the §4.2 signature.
const longName = "-0123456789-0123456789-0123456789-0123456789-0123456789"

// genOps grows a randomized workload of n ops against oracle, which it
// mutates as its mirror of the namespace the ops will produce: every
// target path is drawn from the state the preceding ops establish, so
// the schedule is valid by construction and a pure function of rng.
//
// The mix deliberately includes the shapes the known bug classes need:
// duplicate creates (WantErr) plant dead reserved dentry slots, long
// names make torn commits expressible, releases set the durability
// points the oracle asserts against, and renames/unlinks churn the
// verified set.
func genOps(rng *rand.Rand, oracle *Oracle, n int) []Op {
	var ops []Op
	pick := func(list []string) string { return list[rng.Intn(len(list))] }
	join := func(dir, name string) string {
		if dir == "/" {
			return "/" + name
		}
		return dir + "/" + name
	}
	// committedKids marks directories that had children at the last
	// release. Removing such a directory — even after emptying it in the
	// current window — fails release verification by design: the
	// parent's commit sees the child's stale shadow ChildCount and
	// rejects the removal as an I3 violation. rmdir therefore targets
	// only directories already verified empty (or never committed).
	committedKids := map[string]bool{}
	snapshotKids := func() {
		committedKids = map[string]bool{}
		for _, p := range oracle.Live() {
			dir, _ := fsapi.SplitPath(p)
			committedKids[dir] = true
		}
	}
	snapshotKids()
	emit := func(op Op) {
		ops = append(ops, op)
		if op.WantErr {
			return
		}
		oracle.Apply(op)
		switch op.Kind {
		case OpRelease:
			snapshotKids()
		case OpRename:
			// Keep committedKids keyed by current paths across renames.
			moved := map[string]bool{}
			for d := range committedKids {
				if d == op.Path || strings.HasPrefix(d, op.Path+"/") {
					moved[d] = true
				}
			}
			for d := range moved {
				delete(committedKids, d)
				committedKids[op.Path2+strings.TrimPrefix(d, op.Path)] = true
			}
		}
	}
	emptyDirs := func() []string {
		live := oracle.Live()
		var out []string
		for _, d := range oracle.Dirs() {
			if d == "/" || committedKids[d] {
				continue
			}
			empty := true
			for _, p := range live {
				if strings.HasPrefix(p, d+"/") {
					empty = false
					break
				}
			}
			if empty {
				out = append(out, d)
			}
		}
		return out
	}

	for i := 0; len(ops) < n; i++ {
		switch roll := rng.Intn(100); {
		case roll < 28: // create, mixed name lengths
			name := fmt.Sprintf("f%03d", i)
			if rng.Intn(100) < 35 {
				name += longName
			}
			emit(Op{Kind: OpCreate, Path: join(pick(oracle.Dirs()), name)})
		case roll < 36: // duplicate create — plants a dead reserved slot
			files := oracle.Files()
			if len(files) == 0 {
				continue
			}
			emit(Op{Kind: OpCreate, Path: pick(files), WantErr: true})
		case roll < 44: // mkdir
			emit(Op{Kind: OpMkdir, Path: join(pick(oracle.Dirs()), fmt.Sprintf("d%03d", i))})
		case roll < 56: // write
			files := oracle.Files()
			if len(files) == 0 {
				continue
			}
			emit(Op{Kind: OpWrite, Path: pick(files), Size: 1 + rng.Intn(400)})
		case roll < 62: // truncate
			files := oracle.Files()
			if len(files) == 0 {
				continue
			}
			emit(Op{Kind: OpTruncate, Path: pick(files), Size: rng.Intn(256)})
		case roll < 72: // unlink
			files := oracle.Files()
			if len(files) == 0 {
				continue
			}
			emit(Op{Kind: OpUnlink, Path: pick(files)})
		case roll < 76: // rmdir (empty directories only)
			ed := emptyDirs()
			if len(ed) == 0 {
				continue
			}
			emit(Op{Kind: OpRmdir, Path: pick(ed)})
		case roll < 90: // rename within the parent directory
			// Same-parent renames only: the Trio release protocol verifies
			// a cross-directory relocation's removal and addition as the
			// two parents release, and ReleaseAll's ordering can verify
			// the removal first — freeing the inode before its new link is
			// seen. Staying in one parent keeps every generated schedule
			// inside the protocol the paper's rules cover.
			var victims []string
			if rng.Intn(100) < 70 {
				victims = oracle.Files()
			} else {
				for _, d := range oracle.Dirs() {
					if d != "/" {
						victims = append(victims, d)
					}
				}
			}
			if len(victims) == 0 {
				continue
			}
			src := pick(victims)
			dir, _ := fsapi.SplitPath(src)
			emit(Op{Kind: OpRename,
				Path:  src,
				Path2: join(dir, fmt.Sprintf("r%03d", i))})
		default: // release — the Trio durability point
			emit(Op{Kind: OpRelease})
		}
	}
	return ops
}

// walkLive recursively lists every path reachable from the root via
// Readdir, sorted — the live half of the oracle self-check.
func walkLive(th fsapi.Thread) ([]string, error) {
	var out []string
	var rec func(dir string) error
	rec = func(dir string) error {
		names, err := th.Readdir(dir)
		if err != nil {
			return fmt.Errorf("readdir %s: %v", dir, err)
		}
		for _, n := range names {
			p := dir + "/" + n
			if dir == "/" {
				p = "/" + n
			}
			out = append(out, p)
			st, err := th.Stat(p)
			if err != nil {
				return fmt.Errorf("stat %s: %v", p, err)
			}
			if st.Dir {
				if err := rec(p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := rec("/"); err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// diffNamespaces compares the oracle's expected namespace against the
// walked one; it returns "" on an exact match, else a bounded summary
// of what is missing and what is unexpected.
func diffNamespaces(want, got []string) string {
	w := make(map[string]bool, len(want))
	for _, p := range want {
		w[p] = true
	}
	g := make(map[string]bool, len(got))
	for _, p := range got {
		g[p] = true
	}
	var missing, extra []string
	for _, p := range want {
		if !g[p] {
			missing = append(missing, p)
		}
	}
	for _, p := range got {
		if !w[p] {
			extra = append(extra, p)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	bound := func(ps []string) string {
		if len(ps) > 4 {
			return fmt.Sprintf("%v … (%d total)", ps[:4], len(ps))
		}
		return fmt.Sprint(ps)
	}
	var parts []string
	if len(missing) > 0 {
		parts = append(parts, "missing "+bound(missing))
	}
	if len(extra) > 0 {
		parts = append(parts, "unexpected "+bound(extra))
	}
	return "live namespace diverged from oracle: " + strings.Join(parts, "; ")
}
