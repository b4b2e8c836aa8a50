package kv

import (
	"encoding/binary"
	"errors"

	"arckfs/internal/fsapi"
)

// wal is the write-ahead log: every mutation is appended and synced
// before it enters the memtable. Record format:
//
//	[total u32][op u8][klen u32][vlen u32][key][value]
type wal struct {
	t    fsapi.Thread
	path string
	fd   fsapi.FD
	off  int64
	// rec is the reusable record buffer: append runs under db.mu and
	// WriteAt copies before it returns, so one buffer serves every Put.
	rec []byte
}

func openWAL(t fsapi.Thread, path string) (*wal, error) {
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
	return &wal{t: t, path: path, fd: fd, off: int64(st.Size)}, nil
}

func (w *wal) append(key, val []byte, del bool) error {
	total := 4 + 1 + 4 + 4 + len(key) + len(val)
	if cap(w.rec) < total {
		w.rec = make([]byte, total)
	}
	buf := w.rec[:total]
	binary.LittleEndian.PutUint32(buf[0:], uint32(total))
	buf[4] = 0
	if del {
		buf[4] = 1
	}
	binary.LittleEndian.PutUint32(buf[5:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[9:], uint32(len(val)))
	copy(buf[13:], key)
	copy(buf[13+len(key):], val)
	if _, err := w.t.WriteAt(w.fd, buf, w.off); err != nil {
		return err
	}
	if err := w.t.Fsync(w.fd); err != nil {
		return err
	}
	w.off += int64(total)
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

// replayWAL applies surviving log records into the memtable at open.
func (db *DB) replayWAL() error {
	buf, err := readAll(db.t, db.walPath())
	if errors.Is(err, fsapi.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	pos := 0
	for pos+13 <= len(buf) {
		total := int(binary.LittleEndian.Uint32(buf[pos:]))
		if total < 13 || pos+total > len(buf) {
			break // torn tail record: discard, as LevelDB does
		}
		del := buf[pos+4] == 1
		kl := int(binary.LittleEndian.Uint32(buf[pos+5:]))
		vl := int(binary.LittleEndian.Uint32(buf[pos+9:]))
		if 13+kl+vl != total {
			break
		}
		key := append([]byte(nil), buf[pos+13:pos+13+kl]...)
		val := append([]byte(nil), buf[pos+13+kl:pos+total]...)
		db.mem.put(key, val, del)
		pos += total
	}
	return nil
}
