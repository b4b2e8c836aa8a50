package workload

import (
	"encoding/binary"
	"fmt"

	"arckfs/internal/fsapi"
)

const (
	lookupFiles      = 4096
	lookupChurnEvery = 16
	lookupChurnNames = 64
)

// lookupShared has two threads of one application look files up in one
// shared five-deep directory: stat, open, read 4 KiB, close. Thread 1 also
// creates and unlinks a private name in that directory after every 16th
// lookup, so the readers run beside a writer on the same hash table.
type lookupShared struct {
	g     *gen // content tags and names; each worker has its own op stream
	dir   string
	paths []string
	names []string
	tags  []uint64
	churn []string // thread 1's private names, as paths
	w     [2]lookupWorker
}

type lookupWorker struct {
	parent  *lookupShared
	g       *gen
	fs      *tfs
	buf     []byte
	writer  bool
	lookups int
}

func (w *lookupShared) setup(e *env) error {
	w.g = newGen(e.cfg.Seed)
	t := e.worker(0).t
	for _, n := range w.g.names("l", 5) {
		w.dir += "/" + n
		if err := t.Mkdir(w.dir); err != nil {
			return err
		}
	}
	w.names = w.g.names("f", lookupFiles)
	w.paths = make([]string, lookupFiles)
	w.tags = make([]uint64, lookupFiles)
	buf := make([]byte, blockSize)
	for k, n := range w.names {
		w.paths[k] = w.dir + "/" + n
		w.tags[k] = uint64(k+1)<<12 | uint64(w.g.rng.Intn(blockSize))
		if err := t.Create(w.paths[k]); err != nil {
			return err
		}
		fd, err := t.Open(w.paths[k])
		if err != nil {
			return err
		}
		w.g.fill(buf, w.tags[k])
		if _, err := t.WriteAt(fd, buf, 0); err != nil {
			return err
		}
		if err := t.Close(fd); err != nil {
			return err
		}
	}
	for _, n := range w.g.names("w", lookupChurnNames) {
		w.churn = append(w.churn, w.dir+"/"+n)
	}
	for i := range w.w {
		w.w[i] = lookupWorker{
			parent: w,
			g:      newGen(e.cfg.Seed*2 + int64(i) + 1),
			fs:     e.worker(i),
			buf:    make([]byte, blockSize),
			writer: i == 1,
		}
	}
	return nil
}

func (w *lookupShared) steps() []func() error {
	return []func() error{w.w[0].step, w.w[1].step}
}

func (lw *lookupWorker) step() error {
	p := lw.parent
	if lw.writer && lw.lookups == lookupChurnEvery {
		lw.lookups = 0
		k := lw.g.rng.Intn(lookupChurnNames)
		lw.g.mix(spCreate, uint64(k), 0)
		if err := lw.fs.create(p.churn[k]); err != nil {
			return err
		}
		return lw.fs.unlink(p.churn[k])
	}
	lw.lookups++
	k := lw.g.rng.Intn(lookupFiles)
	lw.g.mix(spStat, uint64(k), 0)
	st, err := lw.fs.stat(p.paths[k])
	if err != nil {
		return err
	}
	if st.Dir || st.Size != blockSize {
		return fmt.Errorf("stat %s: dir=%v size=%d", p.paths[k], st.Dir, st.Size)
	}
	fd, err := lw.fs.open(p.paths[k])
	if err != nil {
		return err
	}
	n, err := lw.fs.read4k(fd, lw.buf, 0)
	if cerr := lw.fs.close(fd); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint64(lw.buf); n != blockSize || got != p.tags[k] {
		return fmt.Errorf("read %s: n=%d tag=%d, oracle has %d", p.paths[k], n, got, p.tags[k])
	}
	return nil
}

func (w *lookupShared) quiesce() error { return nil }

func (w *lookupShared) check(fs fsapi.FS, m *mismatches) {
	t := fs.NewThread(0)
	checkDir(m, t, w.dir, w.names)
	for k, p := range w.paths {
		checkFile(m, t, w.g, p, w.tags[k:k+1])
	}
}

func (w *lookupShared) userBytes() int64 { return 0 }
func (w *lookupShared) seqHash() uint64  { return w.w[0].g.hash ^ w.w[1].g.hash<<1 }
