// Package kv implements a LevelDB-style log-structured-merge key-value
// store on top of the fsapi file systems: a write-ahead log, a skiplist
// memtable, sorted string tables, size-tiered leveled compaction, and a
// manifest for recovery. It is the substrate for the paper's LevelDB
// benchmark (§5.3): its workload is dominated by file data operations,
// which is exactly why ArckFS and ArckFS+ perform alike on it.
package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"arckfs/internal/fsapi"
)

// Options tunes the store.
type Options struct {
	// Dir is the database directory (created if missing).
	Dir string
	// MemtableBytes triggers a flush when the memtable exceeds it.
	MemtableBytes int
	// L0Tables triggers a compaction of level 0 into level 1.
	L0Tables int
	// LevelRatio is the size multiplier between consecutive levels.
	LevelRatio int
	// MaxLevels bounds the tree depth.
	MaxLevels int
}

func (o *Options) fill() {
	if o.Dir == "" {
		o.Dir = "/db"
	}
	if o.MemtableBytes == 0 {
		o.MemtableBytes = 1 << 20
	}
	if o.L0Tables == 0 {
		o.L0Tables = 4
	}
	if o.LevelRatio == 0 {
		o.LevelRatio = 4
	}
	if o.MaxLevels == 0 {
		o.MaxLevels = 5
	}
}

// DB is one open store. It is safe for concurrent use; writes serialize
// on an internal mutex (as LevelDB's writer queue does), reads run
// concurrently against immutable tables.
type DB struct {
	fs   fsapi.FS
	opts Options

	mu      sync.RWMutex
	mem     *memtable
	wal     *wal
	levels  [][]*tableMeta // levels[0] newest-first; deeper levels sorted runs
	readers map[string]*tableReader
	nextNum int
	t       fsapi.Thread // internal maintenance thread
}

// Open creates or reopens a database in opts.Dir.
func Open(fs fsapi.FS, opts Options) (*DB, error) {
	opts.fill()
	db := &DB{
		fs:      fs,
		opts:    opts,
		mem:     newMemtable(),
		readers: map[string]*tableReader{},
		levels:  make([][]*tableMeta, opts.MaxLevels),
		t:       fs.NewThread(0),
	}
	if err := db.t.Mkdir(opts.Dir); err != nil && !errors.Is(err, fsapi.ErrExist) {
		return nil, err
	}
	if err := db.loadManifest(); err != nil {
		return nil, err
	}
	if err := db.replayWAL(); err != nil {
		return nil, err
	}
	w, err := openWAL(db.t, db.walPath())
	if err != nil {
		return nil, err
	}
	db.wal = w
	return db, nil
}

func (db *DB) walPath() string      { return db.opts.Dir + "/wal" }
func (db *DB) manifestPath() string { return db.opts.Dir + "/MANIFEST" }
func (db *DB) tablePath(n int) string {
	return fmt.Sprintf("%s/sst-%06d", db.opts.Dir, n)
}

// Put stores key → val.
func (db *DB) Put(key, val []byte) error {
	return db.write(key, val, false)
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	return db.write(key, nil, true)
}

func (db *DB) write(key, val []byte, del bool) error {
	if len(key) == 0 {
		return fmt.Errorf("kv: empty key")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.wal.append(key, val, del); err != nil {
		return err
	}
	db.mem.put(append([]byte(nil), key...), append([]byte(nil), val...), del)
	if db.mem.size >= db.opts.MemtableBytes {
		return db.flushLocked()
	}
	return nil
}

// Get returns the value for key, or fsapi.ErrNotExist.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if val, del, ok := db.mem.get(key); ok {
		if del {
			return nil, fsapi.ErrNotExist
		}
		return append([]byte(nil), val...), nil
	}
	// L0 newest-first, then deeper levels.
	for lvl, tables := range db.levels {
		ordered := tables
		if lvl > 0 {
			// Non-overlapping: binary search by range.
			i := searchTables(tables, key)
			if i < 0 {
				continue
			}
			ordered = tables[i : i+1]
		}
		for _, meta := range ordered {
			r := db.readers[meta.file]
			if r == nil {
				continue
			}
			val, del, found, err := r.get(key)
			if err != nil {
				return nil, err
			}
			if found {
				if del {
					return nil, fsapi.ErrNotExist
				}
				return val, nil
			}
		}
	}
	return nil, fsapi.ErrNotExist
}

// searchTables finds the index of the non-overlapping table whose range
// contains key, or -1.
func searchTables(tables []*tableMeta, key []byte) int {
	lo, hi := 0, len(tables)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		m := tables[mid]
		switch {
		case bytes.Compare(key, m.smallest) < 0:
			hi = mid - 1
		case bytes.Compare(key, m.largest) > 0:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// Flush forces the memtable to a level-0 table.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.flushLocked()
}

func (db *DB) flushLocked() error {
	if db.mem.entries == 0 {
		return nil
	}
	num := db.nextNum
	db.nextNum++
	meta, err := writeTable(db.t, db.tablePath(num), func(yield func(k, v []byte, del bool)) {
		db.mem.iter(func(k, v []byte, del bool) bool {
			yield(k, v, del)
			return true
		})
	})
	if err != nil {
		return err
	}
	r, err := openTable(db.t, meta)
	if err != nil {
		return err
	}
	db.readers[meta.file] = r
	db.levels[0] = append([]*tableMeta{meta}, db.levels[0]...)
	db.mem = newMemtable()
	// Truncate the WAL: its contents are now durable in the table.
	if err := db.wal.reset(); err != nil {
		return err
	}
	if err := db.writeManifestLocked(); err != nil {
		return err
	}
	return db.maybeCompactLocked()
}

// maybeCompactLocked merges L0 into L1 when L0 is full, and cascades
// size-triggered merges down the levels.
func (db *DB) maybeCompactLocked() error {
	if len(db.levels[0]) >= db.opts.L0Tables {
		if err := db.compactLocked(0); err != nil {
			return err
		}
	}
	limit := db.opts.L0Tables * db.opts.LevelRatio
	for lvl := 1; lvl < db.opts.MaxLevels-1; lvl++ {
		if len(db.levels[lvl]) > limit {
			if err := db.compactLocked(lvl); err != nil {
				return err
			}
		}
		limit *= db.opts.LevelRatio
	}
	return nil
}

// compactLocked merges every table of lvl with every table of lvl+1 into
// a fresh sorted run at lvl+1.
func (db *DB) compactLocked(lvl int) error {
	srcs := append(append([]*tableMeta{}, db.levels[lvl]...), db.levels[lvl+1]...)
	if len(srcs) == 0 {
		return nil
	}
	// Priority order: earlier in srcs wins (L0 is newest-first, and
	// shallower levels are newer than deeper ones).
	merged, err := db.mergeTables(srcs, lvl+1 == db.opts.MaxLevels-1)
	if err != nil {
		return err
	}
	// Install: new run replaces both levels; old tables removed.
	for _, meta := range srcs {
		if r := db.readers[meta.file]; r != nil {
			r.close()
			delete(db.readers, meta.file)
		}
		if err := db.t.Unlink(meta.file); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
			return err
		}
	}
	db.levels[lvl] = nil
	db.levels[lvl+1] = merged
	return db.writeManifestLocked()
}

// mergeTables produces a sorted, deduplicated run from srcs (earlier
// tables take precedence). dropTombstones is set when merging into the
// bottom level.
func (db *DB) mergeTables(srcs []*tableMeta, dropTombstones bool) ([]*tableMeta, error) {
	type rec struct {
		val []byte
		del bool
	}
	// Materialized merge: newest-first insertion so older values never
	// overwrite newer ones. (LevelDB streams this; materializing is
	// equivalent for our scales and keeps the code auditable.)
	entries := map[string]rec{}
	for _, meta := range srcs {
		r := db.readers[meta.file]
		if r == nil {
			var err error
			r, err = openTable(db.t, meta)
			if err != nil {
				return nil, err
			}
			db.readers[meta.file] = r
		}
		err := r.scan(func(k, v []byte, del bool) bool {
			if _, seen := entries[string(k)]; !seen {
				entries[string(k)] = rec{val: append([]byte(nil), v...), del: del}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		if dropTombstones && entries[k].del {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	num := db.nextNum
	db.nextNum++
	meta, err := writeTable(db.t, db.tablePath(num), func(yield func(k, v []byte, del bool)) {
		for _, k := range keys {
			e := entries[k]
			yield([]byte(k), e.val, e.del)
		}
	})
	if err != nil {
		return nil, err
	}
	r, err := openTable(db.t, meta)
	if err != nil {
		return nil, err
	}
	db.readers[meta.file] = r
	if meta.entries == 0 {
		// Everything compacted away.
		r.close()
		delete(db.readers, meta.file)
		db.t.Unlink(meta.file)
		return nil, nil
	}
	return []*tableMeta{meta}, nil
}

// --- Manifest ---------------------------------------------------------------

// Manifest format: nextNum u32, per level: count u32 then per table:
// fileLen u32, file, smallestLen u32, smallest, largestLen u32, largest,
// entries u32.
func (db *DB) writeManifestLocked() error {
	var buf bytes.Buffer
	var w [4]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		buf.Write(w[:])
	}
	put32(uint32(db.nextNum))
	put32(uint32(len(db.levels)))
	for _, tables := range db.levels {
		put32(uint32(len(tables)))
		for _, m := range tables {
			put32(uint32(len(m.file)))
			buf.WriteString(m.file)
			put32(uint32(len(m.smallest)))
			buf.Write(m.smallest)
			put32(uint32(len(m.largest)))
			buf.Write(m.largest)
			put32(uint32(m.entries))
		}
	}
	tmp := db.manifestPath() + ".tmp"
	if err := db.t.Unlink(tmp); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
		return err
	}
	if err := db.t.Create(tmp); err != nil {
		return err
	}
	fd, err := db.t.Open(tmp)
	if err != nil {
		return err
	}
	if _, err := db.t.WriteAt(fd, buf.Bytes(), 0); err != nil {
		db.t.Close(fd)
		return err
	}
	db.t.Fsync(fd)
	db.t.Close(fd)
	if err := db.t.Unlink(db.manifestPath()); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
		return err
	}
	return db.t.Rename(tmp, db.manifestPath())
}

func (db *DB) loadManifest() error {
	st, err := db.t.Stat(db.manifestPath())
	if errors.Is(err, fsapi.ErrNotExist) {
		return nil // fresh database
	}
	if err != nil {
		return err
	}
	fd, err := db.t.Open(db.manifestPath())
	if err != nil {
		return err
	}
	defer db.t.Close(fd)
	buf := make([]byte, st.Size)
	if _, err := db.t.ReadAt(fd, buf, 0); err != nil {
		return err
	}
	pos := 0
	get32 := func() uint32 {
		v := binary.LittleEndian.Uint32(buf[pos:])
		pos += 4
		return v
	}
	db.nextNum = int(get32())
	nlevels := int(get32())
	for lvl := 0; lvl < nlevels && lvl < len(db.levels); lvl++ {
		n := int(get32())
		for i := 0; i < n; i++ {
			fl := int(get32())
			file := string(buf[pos : pos+fl])
			pos += fl
			sl := int(get32())
			smallest := append([]byte(nil), buf[pos:pos+sl]...)
			pos += sl
			ll := int(get32())
			largest := append([]byte(nil), buf[pos:pos+ll]...)
			pos += ll
			entries := int(get32())
			meta := &tableMeta{file: file, smallest: smallest, largest: largest, entries: entries}
			r, err := openTable(db.t, meta)
			if err != nil {
				return err
			}
			db.levels[lvl] = append(db.levels[lvl], meta)
			db.readers[meta.file] = r
		}
	}
	return nil
}

// Close flushes and releases the store.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.flushLocked(); err != nil {
		return err
	}
	for _, r := range db.readers {
		r.close()
	}
	return nil
}

// Stats reports table counts per level (for tests and tuning).
func (db *DB) Stats() []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]int, len(db.levels))
	for i, t := range db.levels {
		out[i] = len(t)
	}
	return out
}
