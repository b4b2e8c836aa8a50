package crashmc

import (
	"sort"
	"strings"
)

// Oracle tracks the expected namespace state of a workload, per the Trio
// durability contract: a path is asserted crash-durable only if the last
// completed kernel release verified it AND no later operation has named
// it (or an ancestor) since. Everything else — unverified creations,
// in-flight renames, files created after the last release — may
// legitimately vanish at a crash, and recovery dropping them is not a
// counterexample.
//
// The oracle is deliberately conservative (it unasserts on any namespace
// op touching a verified path) so that every violation it does report
// is a real loss of verified state, never a modeling artifact.
//
// It is updated incrementally, one completed op at a time (Apply), which
// is what lets the loop driver keep an expected state per iteration
// instead of replaying the whole op log: the live namespace (Live)
// drives workload generation, and the verified set (ExpectPresent) is
// the durability assertion checked after every simulated crash.
type Oracle struct {
	// cur maps every path that exists in the running FS to whether it is
	// a directory.
	cur map[string]bool
	// verified holds paths verified at the last release and untouched
	// since.
	verified map[string]bool
}

// NewOracle builds the oracle state as of the end of a warmup script
// (which always ends in a hidden release before tracking starts).
func NewOracle(warmup []Op) *Oracle {
	m := &Oracle{cur: map[string]bool{"/": true}, verified: map[string]bool{}}
	for _, op := range warmup {
		m.Apply(op)
	}
	m.Apply(Op{Kind: OpRelease})
	return m
}

// Apply folds a completed op into the oracle. Ops that were expected to
// fail (WantErr) must not be applied — they did not change the
// namespace.
func (m *Oracle) Apply(op Op) {
	switch op.Kind {
	case OpCreate:
		m.cur[op.Path] = false
	case OpMkdir:
		m.cur[op.Path] = true
	case OpUnlink, OpRmdir:
		delete(m.cur, op.Path)
		m.unassert(op.Path)
	case OpRename:
		var moved []string
		for p := range m.cur {
			if p == op.Path || strings.HasPrefix(p, op.Path+"/") {
				moved = append(moved, p)
			}
		}
		sort.Strings(moved)
		isDir := make([]bool, len(moved))
		for i, p := range moved {
			isDir[i] = m.cur[p]
			delete(m.cur, p)
		}
		for i, p := range moved {
			m.cur[op.Path2+strings.TrimPrefix(p, op.Path)] = isDir[i]
		}
		m.unassert(op.Path)
		m.unassert(op.Path2)
	case OpRelease:
		m.verified = make(map[string]bool, len(m.cur))
		for p := range m.cur {
			m.verified[p] = true
		}
	}
	// OpWrite and OpTruncate change file contents, not the namespace;
	// the drivers assert presence only, so they leave the oracle alone.
}

// unassert removes path and its subtree from the verified set.
func (m *Oracle) unassert(path string) {
	for p := range m.verified {
		if p == path || strings.HasPrefix(p, path+"/") {
			delete(m.verified, p)
		}
	}
}

// Exists reports whether path exists in the running FS.
func (m *Oracle) Exists(path string) bool { _, ok := m.cur[path]; return ok }

// IsDir reports whether path exists and is a directory.
func (m *Oracle) IsDir(path string) bool { return m.cur[path] }

// Live returns, sorted, every path that exists in the running FS,
// excluding the root. A clean (crash-free) run must end with the live
// FS namespace exactly equal to this set — the oracle self-check.
func (m *Oracle) Live() []string {
	out := make([]string, 0, len(m.cur))
	for p := range m.cur {
		if p == "/" {
			continue
		}
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Dirs returns, sorted, every directory that exists, including the root.
func (m *Oracle) Dirs() []string {
	var out []string
	for p, isDir := range m.cur {
		if isDir {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Files returns, sorted, every regular file that exists.
func (m *Oracle) Files() []string {
	var out []string
	for p, isDir := range m.cur {
		if !isDir {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// ExpectPresent returns, sorted, the paths every crash image taken now
// must preserve. inflight, when non-nil, is the op currently executing;
// the paths it touches (and their subtrees) are excluded, since the op
// is entitled to be mid-mutation of them.
func (m *Oracle) ExpectPresent(inflight *Op) []string {
	var skip []string
	if inflight != nil {
		skip = inflight.touched()
	}
	out := make([]string, 0, len(m.verified))
	for p := range m.verified {
		if p == "/" {
			continue
		}
		excluded := false
		for _, t := range skip {
			if p == t || strings.HasPrefix(p, t+"/") {
				excluded = true
				break
			}
		}
		if !excluded {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
