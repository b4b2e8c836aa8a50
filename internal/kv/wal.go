package kv

import (
	"encoding/binary"
	"errors"

	"arckfs/internal/fsapi"
)

const (
	walHeader = 13 // total u32, op u8, klen u32, vlen u32
	// walAlign pads every record to whole cache lines: whole lines are
	// streamed and need no clwb.
	walAlign = 64
)

// wal is the write-ahead log: every mutation is appended and synced
// before it enters the memtable. Record format:
//
//	[total u32][op u8][klen u32][vlen u32][key][value][zeroes]
//
// total counts the header, key and value; zeroes pad the record to the
// next multiple of walAlign, so every record starts on a cache line.
type wal struct {
	t    fsapi.Thread
	path string
	fd   fsapi.FD
	off  int64
	// rec is the reusable record buffer: append runs under db.mu and
	// WriteAt copies before it returns, so one buffer serves every Put.
	rec []byte
}

// padded is the length a record of total bytes takes in the log.
func padded(total int) int { return (total + walAlign - 1) &^ (walAlign - 1) }

// openWAL opens the log for appending at end, the end of the last whole
// record replay read, and truncates whatever lies beyond it: a record
// appended behind a torn tail would be invisible to the next replay.
func openWAL(t fsapi.Thread, path string, end int64) (*wal, error) {
	if err := t.Create(path); err != nil && !errors.Is(err, fsapi.ErrExist) {
		return nil, err
	}
	fd, err := t.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := t.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.Size > uint64(end) {
		if err := t.Truncate(path, uint64(end)); err != nil {
			return nil, err
		}
	}
	return &wal{t: t, path: path, fd: fd, off: end}, nil
}

func (w *wal) append(key, val []byte, del bool) error {
	total := walHeader + len(key) + len(val)
	n := padded(total)
	if cap(w.rec) < n {
		w.rec = make([]byte, n)
	}
	buf := w.rec[:n]
	binary.LittleEndian.PutUint32(buf[0:], uint32(total))
	buf[4] = 0
	if del {
		buf[4] = 1
	}
	binary.LittleEndian.PutUint32(buf[5:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[9:], uint32(len(val)))
	copy(buf[walHeader:], key)
	copy(buf[walHeader+len(key):], val)
	clear(buf[total:])
	if _, err := w.t.WriteAt(w.fd, buf, w.off); err != nil {
		return err
	}
	if err := w.t.Fsync(w.fd); err != nil {
		return err
	}
	w.off += int64(n)
	return nil
}

// reset truncates the log after a flush made its contents durable.
func (w *wal) reset() error {
	if err := w.t.Truncate(w.path, 0); err != nil {
		return err
	}
	w.off = 0
	return nil
}

// replayWAL applies surviving log records into the memtable at open and
// returns the end of the last whole record.
func (db *DB) replayWAL() (int64, error) {
	buf, err := readAll(db.t, db.walPath())
	if errors.Is(err, fsapi.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	pos := 0
	for pos+walHeader <= len(buf) {
		total := int(binary.LittleEndian.Uint32(buf[pos:]))
		if total < walHeader || pos+padded(total) > len(buf) {
			break // torn tail record: discard, as LevelDB does
		}
		del := buf[pos+4] == 1
		kl := int(binary.LittleEndian.Uint32(buf[pos+5:]))
		vl := int(binary.LittleEndian.Uint32(buf[pos+9:]))
		if walHeader+kl+vl != total {
			break
		}
		key := append([]byte(nil), buf[pos+walHeader:pos+walHeader+kl]...)
		val := append([]byte(nil), buf[pos+walHeader+kl:pos+total]...)
		db.mem.put(key, val, del)
		pos += padded(total)
	}
	return int64(pos), nil
}
