package workload

import (
	"encoding/binary"
	"fmt"

	"arckfs/internal/fsapi"
)

const (
	rwMainBlocks   = 64 << 20 / blockSize // pre-filled file, random reads and overwrites
	rwAppendBlocks = 16 << 20 / blockSize // append target: reset to empty when it gets here
	rwMainPath     = "/rw/main"
	rwAppendPath   = "/rw/append"
	rwSyncEvery    = 64
)

// dataRW issues fd-based 4 KiB operations on two private files: 50 %
// random read, 25 % random overwrite, 20 % append, 5 % truncate (shrink the
// append target by one block; an append that finds it full resets it to
// empty instead), and an fsync after every 64th write.
type dataRW struct {
	g             *gen
	fs            *tfs
	mainFD, appFD fsapi.FD
	buf           []byte
	// Oracle: the tag last written to each block. len(appTags) is the
	// append target's size in blocks.
	mainTags []uint64
	appTags  []uint64
	nextTag  uint64
	writes   int
	user     int64
}

func (w *dataRW) setup(e *env) error {
	w.g = newGen(e.cfg.Seed)
	w.fs = e.worker(0)
	w.buf = make([]byte, blockSize)
	w.mainTags = make([]uint64, rwMainBlocks)
	w.appTags = make([]uint64, 0, rwAppendBlocks)
	t := w.fs.t
	if err := t.Mkdir("/rw"); err != nil {
		return err
	}
	for _, p := range []string{rwMainPath, rwAppendPath} {
		if err := t.Create(p); err != nil {
			return err
		}
	}
	var err error
	if w.mainFD, err = t.Open(rwMainPath); err != nil {
		return err
	}
	if w.appFD, err = t.Open(rwAppendPath); err != nil {
		return err
	}
	for b := range w.mainTags {
		w.mainTags[b] = w.tag()
		w.g.fill(w.buf, w.mainTags[b])
		if _, err := t.WriteAt(w.mainFD, w.buf, int64(b)*blockSize); err != nil {
			return err
		}
	}
	return t.Fsync(w.mainFD)
}

// tag returns a fresh, never-zero content tag.
func (w *dataRW) tag() uint64 {
	w.nextTag++
	return w.nextTag<<12 | uint64(w.g.rng.Intn(blockSize))
}

func (w *dataRW) steps() []func() error { return []func() error{w.step} }

func (w *dataRW) step() error {
	r := w.g.rng.Intn(100)
	switch {
	case r < 50:
		b := w.g.rng.Intn(rwMainBlocks)
		w.g.mix(spRead4k, uint64(b), 0)
		n, err := w.fs.read4k(w.mainFD, w.buf, int64(b)*blockSize)
		if err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint64(w.buf); n != blockSize || got != w.mainTags[b] {
			return fmt.Errorf("read block %d: n=%d tag=%d, oracle has %d", b, n, got, w.mainTags[b])
		}
		return nil
	case r < 75:
		b := w.g.rng.Intn(rwMainBlocks)
		w.g.mix(spWrite4k, uint64(b), 0)
		tag := w.tag()
		w.g.fill(w.buf, tag)
		if _, err := w.fs.write4k(spWrite4k, w.mainFD, w.buf, int64(b)*blockSize); err != nil {
			return err
		}
		w.mainTags[b] = tag
		return w.wrote(w.mainFD)
	case r < 95:
		if len(w.appTags) == rwAppendBlocks {
			return w.truncateTo(0) // the append target is full: reset it
		}
		return w.appendBlock()
	default:
		if len(w.appTags) == 0 {
			return w.appendBlock()
		}
		return w.truncateTo(len(w.appTags) - 1)
	}
}

func (w *dataRW) appendBlock() error {
	w.g.mix(spAppend4k, uint64(len(w.appTags)), 0)
	tag := w.tag()
	w.g.fill(w.buf, tag)
	if _, err := w.fs.write4k(spAppend4k, w.appFD, w.buf, int64(len(w.appTags))*blockSize); err != nil {
		return err
	}
	w.appTags = append(w.appTags, tag)
	return w.wrote(w.appFD)
}

func (w *dataRW) truncateTo(blocks int) error {
	w.g.mix(spTruncate, uint64(blocks), 0)
	if err := w.fs.truncate(rwAppendPath, uint64(blocks)*blockSize); err != nil {
		return err
	}
	w.appTags = w.appTags[:blocks]
	return nil
}

// wrote counts one 4 KiB write and syncs fd after every 64th.
func (w *dataRW) wrote(fd fsapi.FD) error {
	w.user += blockSize
	if w.writes++; w.writes%rwSyncEvery == 0 {
		return w.fs.fsync(fd)
	}
	return nil
}

func (w *dataRW) quiesce() error {
	if err := w.fs.t.Close(w.mainFD); err != nil {
		return err
	}
	return w.fs.t.Close(w.appFD)
}

func (w *dataRW) check(fs fsapi.FS, m *mismatches) {
	t := fs.NewThread(0)
	checkDir(m, t, "/rw", []string{"main", "append"})
	checkFile(m, t, w.g, rwMainPath, w.mainTags)
	checkFile(m, t, w.g, rwAppendPath, w.appTags)
}

func (w *dataRW) userBytes() int64 { return w.user }
func (w *dataRW) seqHash() uint64  { return w.g.hash }
