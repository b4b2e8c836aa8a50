package workload

import (
	"fmt"

	"arckfs/internal/fsapi"
)

const (
	churnFiles    = 1024
	churnPool     = 2 * churnFiles // names per directory: one half live, one half rename targets
	churnDirs     = 4              // directory names reused round-robin (each is removed before reuse)
	churnCycleOps = 1 + 5*churnFiles + 2
)

// metaChurn cycles private directories through mkdir, 1024 x (create,
// open/close, stat, rename, unlink), readdir, rmdir. Paths are built at
// set-up so the timed loop allocates nothing of its own.
type metaChurn struct {
	g     *gen
	fs    *tfs
	dirs  [churnDirs]string
	paths [churnDirs][churnPool]string
	names [churnPool]string

	cycle, phase, j int
	base, stride    int
	// exists is the oracle: which pool names the current directory holds.
	exists  [churnPool]bool
	dirLive bool
}

func (w *metaChurn) setup(e *env) error {
	w.g = newGen(e.cfg.Seed)
	w.fs = e.worker(0)
	dirNames := w.g.names("d", churnDirs)
	copy(w.names[:], w.g.names("f", churnPool))
	for d := range w.dirs {
		w.dirs[d] = "/mc/" + dirNames[d]
		for k, n := range w.names {
			w.paths[d][k] = w.dirs[d] + "/" + n
		}
	}
	w.startPhase()
	return w.fs.t.Mkdir("/mc")
}

func (w *metaChurn) startPhase() {
	w.j = 0
	if w.phase == 0 {
		w.base = w.g.rng.Intn(churnPool)
	}
	w.stride = 2*w.g.rng.Intn(churnFiles/2) + 1
}

// slot returns the pool index of the j-th file of this phase: an odd stride
// visits all 1024 in a seeded order.
func (w *metaChurn) slot(j int, renamed bool) int {
	k := w.base + (j*w.stride)&(churnFiles-1)
	if renamed {
		k += churnFiles
	}
	return k % churnPool
}

func (w *metaChurn) steps() []func() error { return []func() error{w.step} }

func (w *metaChurn) step() error {
	d := w.cycle % churnDirs
	var err error
	phaseLen := churnFiles
	switch w.phase {
	case 0:
		phaseLen = 1
		w.g.mix(spMkdir, uint64(w.cycle), 0)
		err = w.fs.mkdir(w.dirs[d])
		w.dirLive = err == nil
	case 1:
		k := w.slot(w.j, false)
		w.g.mix(spCreate, uint64(k), 0)
		err = w.fs.create(w.paths[d][k])
		w.exists[k] = err == nil
	case 2:
		k := w.slot(w.j, false)
		w.g.mix(spOpen, uint64(k), 0)
		var fd fsapi.FD
		if fd, err = w.fs.open(w.paths[d][k]); err == nil {
			err = w.fs.close(fd)
		}
	case 3:
		k := w.slot(w.j, false)
		w.g.mix(spStat, uint64(k), 0)
		var st fsapi.Stat
		if st, err = w.fs.stat(w.paths[d][k]); err == nil && (st.Dir || st.Size != 0) {
			err = fmt.Errorf("stat %s: dir=%v size=%d", w.paths[d][k], st.Dir, st.Size)
		}
	case 4:
		k, to := w.slot(w.j, false), w.slot(w.j, true)
		w.g.mix(spRename, uint64(k), uint64(to))
		if err = w.fs.rename(w.paths[d][k], w.paths[d][to]); err == nil {
			w.exists[k], w.exists[to] = false, true
		}
	case 5:
		k := w.slot(w.j, true)
		w.g.mix(spUnlink, uint64(k), 0)
		if err = w.fs.unlink(w.paths[d][k]); err == nil {
			w.exists[k] = false
		}
	case 6:
		phaseLen = 1
		w.g.mix(spReaddir, uint64(w.cycle), 0)
		var names []string
		if names, err = w.fs.readdir(w.dirs[d]); err == nil && len(names) != 0 {
			err = fmt.Errorf("readdir %s: %d entries left after unlinking all", w.dirs[d], len(names))
		}
	case 7:
		phaseLen = 1
		w.g.mix(spRmdir, uint64(w.cycle), 0)
		if err = w.fs.rmdir(w.dirs[d]); err == nil {
			w.dirLive = false
		}
	}
	if w.j++; w.j == phaseLen {
		if w.phase++; w.phase == 8 {
			w.phase = 0
			w.cycle++
		}
		w.startPhase()
	}
	return err
}

func (w *metaChurn) quiesce() error { return nil }

func (w *metaChurn) check(fs fsapi.FS, m *mismatches) {
	t := fs.NewThread(0)
	var top, live []string
	d := w.cycle % churnDirs
	if w.dirLive {
		top = []string{w.dirs[d][len("/mc/"):]}
		for k, ok := range w.exists {
			if ok {
				live = append(live, w.names[k])
			}
		}
		checkDir(m, t, w.dirs[d], live)
		for k, ok := range w.exists {
			if st, err := t.Stat(w.paths[d][k]); ok && (err != nil || st.Dir || st.Size != 0) {
				m.addf("stat %s: %+v, %v; oracle has an empty file", w.paths[d][k], st, err)
			}
		}
	}
	checkDir(m, t, "/mc", top)
}

func (w *metaChurn) userBytes() int64 { return 0 }
func (w *metaChurn) seqHash() uint64  { return w.g.hash }
