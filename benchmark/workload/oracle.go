package workload

import (
	"fmt"
	"sort"

	"arckfs/internal/fsapi"
)

// mismatches collects oracle disagreements; a bounded number are kept
// verbatim, all are counted.
type mismatches struct {
	n     int
	first []string
}

func (m *mismatches) addf(format string, args ...any) {
	m.n++
	if len(m.first) < 8 {
		m.first = append(m.first, fmt.Sprintf(format, args...))
	}
}

// checkDir requires dir to list exactly want.
func checkDir(m *mismatches, t fsapi.Thread, dir string, want []string) {
	got, err := t.Readdir(dir)
	if err != nil {
		m.addf("readdir %s: %v", dir, err)
		return
	}
	got = append([]string(nil), got...)
	want = append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		m.addf("readdir %s: %d entries, oracle has %d", dir, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			m.addf("readdir %s: entry %q, oracle has %q", dir, got[i], want[i])
			return
		}
	}
}

// checkFile requires path to be a regular file of len(tags) blocks whose
// i-th block holds the content for tags[i].
func checkFile(m *mismatches, t fsapi.Thread, g *gen, path string, tags []uint64) {
	st, err := t.Stat(path)
	if err != nil {
		m.addf("stat %s: %v", path, err)
		return
	}
	if st.Dir || st.Size != uint64(len(tags))*blockSize {
		m.addf("%s: dir=%v size=%d, oracle has a file of %d bytes", path, st.Dir, st.Size, len(tags)*blockSize)
		return
	}
	fd, err := t.Open(path)
	if err != nil {
		m.addf("open %s: %v", path, err)
		return
	}
	defer t.Close(fd)
	buf := make([]byte, blockSize)
	for i, tag := range tags {
		if n, err := t.ReadAt(fd, buf, int64(i)*blockSize); err != nil || n != blockSize {
			m.addf("read %s block %d: n=%d err=%v", path, i, n, err)
			return
		}
		if !g.matches(buf, tag) {
			m.addf("%s block %d: content does not match the oracle's tag %d", path, i, tag)
			return
		}
	}
}
