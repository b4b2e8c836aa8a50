package workload

import (
	"arckfs"
	"arckfs/internal/fsapi"
)

const (
	handoffStatic     = 220 // files that stay in the shared directory throughout
	handoffBatch      = 16  // files each turn creates; the peer unlinks them next turn
	handoffBatches    = 8   // name batches per application, reused round-robin
	handoffShared     = 4   // shared data files
	handoffFileBlocks = 2 << 20 / blockSize
	handoffDir        = "/h"
)

// handoff drives two applications alternately from one goroutine. Each
// turn the holder unlinks the peer's previous batch in the shared
// directory, creates its own, overwrites one block in each shared file,
// and releases everything so the peer can acquire: one turn is one op, and
// it is the only place in the benchmark where the kernel and the verifier
// run.
type handoff struct {
	g      *gen
	tr     *Tracer
	apps   [2]*arckfs.App
	fs     [2]*tfs
	fds    [2][handoffShared]fsapi.FD
	shared [handoffShared]string
	static []string
	pool   [2][handoffBatches][handoffBatch]string // paths
	buf    []byte
	turn   int
	// Oracle: each application's batch now in the directory (index into
	// pool, -1 for none) and the tag of every shared-file block.
	live    [2]int
	tags    [handoffShared][]uint64
	nextTag uint64
	user    int64
}

func (w *handoff) setup(e *env) error {
	w.g = newGen(e.cfg.Seed)
	w.tr = e.tr
	w.buf = make([]byte, blockSize)
	w.live = [2]int{-1, -1}
	w.apps = [2]*arckfs.App{e.app, e.sys.NewApp()}
	for a := range w.apps {
		w.fs[a] = &tfs{t: w.apps[a].NewThread(a), tr: e.tr}
	}
	t := w.fs[0].t
	if err := t.Mkdir(handoffDir); err != nil {
		return err
	}
	w.static = w.g.names("s", handoffStatic)
	for _, n := range w.static {
		if err := t.Create(handoffDir + "/" + n); err != nil {
			return err
		}
	}
	for a := range w.pool {
		prefix := string(rune('a' + a))
		names := w.g.names(prefix, handoffBatches*handoffBatch)
		for i, n := range names {
			w.pool[a][i/handoffBatch][i%handoffBatch] = handoffDir + "/" + n
		}
	}
	for i, n := range w.g.names("data", handoffShared) {
		w.shared[i] = handoffDir + "/" + n
		if err := t.Create(w.shared[i]); err != nil {
			return err
		}
		fd, err := t.Open(w.shared[i])
		if err != nil {
			return err
		}
		w.tags[i] = make([]uint64, handoffFileBlocks)
		for b := range w.tags[i] {
			w.tags[i][b] = w.tag()
			w.g.fill(w.buf, w.tags[i][b])
			if _, err := t.WriteAt(fd, w.buf, int64(b)*blockSize); err != nil {
				return err
			}
		}
		if err := t.Close(fd); err != nil {
			return err
		}
	}
	// Each application opens the shared files once and keeps the
	// descriptors across releases, as a long-running sharer would.
	for a := range w.apps {
		for i, p := range w.shared {
			fd, err := w.fs[a].t.Open(p)
			if err != nil {
				return err
			}
			w.fds[a][i] = fd
		}
		if err := w.apps[a].ReleaseAll(); err != nil {
			return err
		}
	}
	return nil
}

func (w *handoff) tag() uint64 {
	w.nextTag++
	return w.nextTag<<12 | uint64(w.g.rng.Intn(blockSize))
}

func (w *handoff) steps() []func() error { return []func() error{w.step} }

func (w *handoff) step() error {
	a := w.turn % 2
	fs := w.fs[a]
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	span := w.tr.Begin(spTurn)
	if peer := w.live[1-a]; peer >= 0 {
		for _, p := range w.pool[1-a][peer] {
			note(fs.unlink(p))
		}
		w.live[1-a] = -1
	}
	batch := (w.turn / 2) % handoffBatches
	w.g.mix(spTurn, uint64(w.turn), uint64(batch))
	for _, p := range w.pool[a][batch] {
		note(fs.create(p))
	}
	w.live[a] = batch
	for i := range w.shared {
		b := w.g.rng.Intn(handoffFileBlocks)
		w.g.mix(spWrite4k, uint64(i), uint64(b))
		tag := w.tag()
		w.g.fill(w.buf, tag)
		_, err := fs.write4k(spWrite4k, w.fds[a][i], w.buf, int64(b)*blockSize)
		note(err)
		w.tags[i][b] = tag
		w.user += blockSize
	}
	rel := w.tr.Begin(spReleaseAll)
	note(w.apps[a].ReleaseAll())
	w.tr.End(rel)
	w.tr.End(span)
	w.turn++
	return first
}

func (w *handoff) quiesce() error {
	for a := range w.apps {
		for _, fd := range w.fds[a] {
			if err := w.fs[a].t.Close(fd); err != nil {
				return err
			}
		}
		if err := w.apps[a].ReleaseAll(); err != nil {
			return err
		}
	}
	return nil
}

func (w *handoff) check(fs fsapi.FS, m *mismatches) {
	t := fs.NewThread(0)
	want := append([]string(nil), w.static...)
	for _, p := range w.shared {
		want = append(want, p[len(handoffDir)+1:])
	}
	for a, batch := range w.live {
		if batch >= 0 {
			for _, p := range w.pool[a][batch] {
				want = append(want, p[len(handoffDir)+1:])
			}
		}
	}
	checkDir(m, t, handoffDir, want)
	for i, p := range w.shared {
		checkFile(m, t, w.g, p, w.tags[i])
	}
}

func (w *handoff) userBytes() int64 { return w.user }
func (w *handoff) seqHash() uint64  { return w.g.hash }
