// Package kv implements a LevelDB-style log-structured-merge key-value
// store on top of the fsapi file systems: a write-ahead log, a skiplist
// memtable, sorted string tables of bounded size, leveled compaction that
// picks its inputs by key overlap, and a manifest for recovery. It is the
// substrate for the paper's LevelDB benchmark (§5.3): its workload is
// dominated by file data operations, which is exactly why ArckFS and
// ArckFS+ perform alike on it.
//
// Every write-ahead log record is zero-padded to a multiple of 64 bytes,
// so a Put streams whole cache lines instead of storing and flushing
// ragged ones. Open replays the log up to its first torn record and cuts
// the log there before appending.
//
// Level 0 holds flushed memtables, newest first, and they may overlap.
// Every deeper level is one sorted run of disjoint tables, so a Get probes
// at most one table per level. A full level 0 merges with the level-1
// tables it overlaps; a deeper level over its table limit pushes one table
// at a time into the overlapping tables of the next. Inputs that overlap
// nothing move down by a manifest write alone, which is why an in-order
// fill writes every entry once. The manifest is installed before anything
// it supersedes is removed, and Open removes what it does not name.
package kv

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"arckfs/internal/fsapi"
)

// Options tunes the store.
type Options struct {
	// Dir is the database directory (created if missing).
	Dir string
	// MemtableBytes triggers a flush when the memtable exceeds it, and
	// bounds the size of a table that a compaction writes.
	MemtableBytes int
	// L0Tables triggers a compaction of level 0 into level 1.
	L0Tables int
	// LevelRatio is the multiplier between the table limits of consecutive
	// levels: level lvl ≥ 1 holds up to L0Tables × LevelRatio^lvl tables.
	LevelRatio int
	// MaxLevels bounds the tree depth (at least 2); the deepest level has
	// no limit.
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
	if o.MaxLevels < 2 {
		o.MaxLevels = 2 // level 0 needs a level to compact into
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
	levels  [][]*tableMeta // levels[0] newest-first; deeper levels sorted, disjoint runs
	pushed  [][]byte       // per level ≥ 1: largest key of the last table pushed down
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
	db.pushed = make([][]byte, len(db.levels))
	end, err := db.replayWAL()
	if err != nil {
		return nil, err
	}
	w, err := openWAL(db.t, db.walPath(), end)
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
	var w tableWriter
	db.mem.iter(func(k, v []byte, del bool) bool {
		w.add(k, v, del)
		return true
	})
	meta, err := db.finishTable(&w)
	if err != nil {
		return err
	}
	db.levels[0] = append([]*tableMeta{meta}, db.levels[0]...)
	db.mem = newMemtable()
	// The manifest names the table before the WAL forgets its contents.
	if err := db.writeManifestLocked(); err != nil {
		return err
	}
	if err := db.wal.reset(); err != nil {
		return err
	}
	return db.maybeCompactLocked()
}

// finishTable writes w out under the next table number and opens it.
func (db *DB) finishTable(w *tableWriter) (*tableMeta, error) {
	path := db.tablePath(db.nextNum)
	db.nextNum++
	meta, err := w.finish(db.t, path)
	if err == nil {
		db.readers[path], err = openTable(db.t, meta)
	}
	if err != nil {
		_ = db.dropTables([]*tableMeta{{file: path}}) // best effort, as in mergeTables
		return nil, err
	}
	return meta, nil
}

// maybeCompactLocked empties level 0 into level 1 once it holds L0Tables
// tables, then walks down: a level over L0Tables × LevelRatio^lvl tables
// pushes one table at a time into the next until it fits. The deepest
// level has no limit.
func (db *DB) maybeCompactLocked() error {
	if len(db.levels[0]) >= db.opts.L0Tables {
		if err := db.compactLocked(0, db.levels[0]); err != nil {
			return err
		}
	}
	limit := db.opts.L0Tables
	for lvl := 1; lvl < len(db.levels)-1; lvl++ {
		limit *= db.opts.LevelRatio
		for len(db.levels[lvl]) > limit {
			if err := db.compactLocked(lvl, []*tableMeta{db.pickLocked(lvl)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// pickLocked chooses the table of lvl (≥ 1) to push down: the first one
// past where the previous push ended, so that pushes rotate through the
// key space instead of draining one end of it.
func (db *DB) pickLocked(lvl int) *tableMeta {
	tables := db.levels[lvl]
	i := sort.Search(len(tables), func(i int) bool {
		return bytes.Compare(tables[i].largest, db.pushed[lvl]) > 0
	})
	if i == len(tables) {
		i = 0
	}
	db.pushed[lvl] = tables[i].largest
	return tables[i]
}

// compactLocked moves upper — every table of level 0, or tables of a
// deeper lvl in that level's order — into lvl+1, merging it with the
// tables there whose key range it overlaps. When upper is disjoint and
// nothing there overlaps it, the tables move as they are and only the
// manifest is written.
func (db *DB) compactLocked(lvl int, upper []*tableMeta) error {
	byKey := slices.Clone(upper)
	slices.SortFunc(byKey, func(a, b *tableMeta) int { return bytes.Compare(a.smallest, b.smallest) })
	lo, hi, disjoint := byKey[0].smallest, byKey[0].largest, true
	for _, m := range byKey[1:] {
		disjoint = disjoint && bytes.Compare(hi, m.smallest) < 0
		if bytes.Compare(m.largest, hi) > 0 {
			hi = m.largest
		}
	}
	next := db.levels[lvl+1]
	from := sort.Search(len(next), func(i int) bool { return bytes.Compare(next[i].largest, lo) >= 0 })
	to := sort.Search(len(next), func(i int) bool { return bytes.Compare(next[i].smallest, hi) > 0 })

	out, inputs := byKey, []*tableMeta(nil)
	if !disjoint || from < to {
		var err error
		if out, err = db.mergeTables(lvl+1, append(runsOf(lvl, upper), next[from:to])); err != nil {
			return err
		}
		inputs = slices.Concat(upper, next[from:to])
	}
	db.levels[lvl] = slices.DeleteFunc(slices.Clone(db.levels[lvl]), func(m *tableMeta) bool { return slices.Contains(upper, m) })
	db.levels[lvl+1] = slices.Concat(next[:from], out, next[to:])
	// The manifest stops naming the inputs before they are unlinked.
	if err := db.writeManifestLocked(); err != nil {
		return err
	}
	return db.dropTables(inputs)
}

// mergeTables streams the newest version of every key in runs (newest run
// first) into tables of at most MemtableBytes, bound for level outLvl. A
// tombstone is dropped when no deeper level has a table over its key, so
// that no older version can resurface.
func (db *DB) mergeTables(outLvl int, runs [][]*tableMeta) (out []*tableMeta, err error) {
	h, err := db.sources(0, runs)
	if err != nil {
		return nil, err
	}
	heap.Init(&h)
	// An output table ends early rather than span LevelRatio tables of
	// the level below its own, which bounds what pushing it down will
	// rewrite (LevelDB's grandparent rule).
	var below []*tableMeta
	if outLvl+1 < len(db.levels) {
		below = db.levels[outLvl+1]
	}
	spanned := 0
	var w tableWriter
	finish := func() {
		var meta *tableMeta
		if meta, err = db.finishTable(&w); err == nil {
			out = append(out, meta)
		}
		w = tableWriter{}
	}
	for h.Len() > 0 && err == nil {
		key, val, del := h.pop()
		if del && !db.coveredBelow(outLvl, key) {
			continue
		}
		for ; len(below) > 0 && bytes.Compare(below[0].largest, key) < 0; below = below[1:] {
			spanned++
		}
		if w.count > 0 && (w.sizeWith(key, val) > db.opts.MemtableBytes || spanned >= db.opts.LevelRatio) {
			finish()
		}
		if w.count == 0 {
			spanned = 0
		}
		w.add(key, val, del)
	}
	if w.count > 0 && err == nil {
		finish()
	}
	if err != nil {
		_ = db.dropTables(out) // best effort: Open removes what stays behind
		return nil, err
	}
	return out, nil
}

// coveredBelow reports whether a level deeper than lvl has a table whose
// key range covers key.
func (db *DB) coveredBelow(lvl int, key []byte) bool {
	for _, tables := range db.levels[lvl+1:] {
		if searchTables(tables, key) >= 0 {
			return true
		}
	}
	return false
}

// dropTables closes and unlinks tables the manifest does not name.
func (db *DB) dropTables(tables []*tableMeta) error {
	var errs []error
	for _, meta := range tables {
		if r := db.readers[meta.file]; r != nil {
			r.close()
			delete(db.readers, meta.file)
		}
		if err := db.t.Unlink(meta.file); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
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

// readAll returns the contents of the file at path.
func readAll(t fsapi.Thread, path string) ([]byte, error) {
	st, err := t.Stat(path)
	if err != nil || st.Size == 0 {
		return nil, err
	}
	fd, err := t.Open(path)
	if err != nil {
		return nil, err
	}
	defer t.Close(fd)
	buf := make([]byte, st.Size)
	_, err = t.ReadAt(fd, buf, 0)
	return buf, err
}

// parseManifest decodes a manifest, whose keys go on aliasing buf; ok is
// false unless buf is exactly one manifest.
func parseManifest(buf []byte) (nextNum int, levels [][]*tableMeta, ok bool) {
	ok = true
	take := func(n int) []byte {
		if n < 0 || n > len(buf) {
			ok, n = false, 0
		}
		b := buf[:n]
		buf = buf[n:]
		return b
	}
	get32 := func() int {
		if b := take(4); ok {
			return int(binary.LittleEndian.Uint32(b))
		}
		return 0
	}
	nextNum = get32()
	if n := get32(); n <= len(buf)/4 { // every level has a count
		levels = make([][]*tableMeta, n)
	} else {
		ok = false
	}
	for lvl := range levels {
		for n := get32(); n > 0 && ok; n-- {
			meta := &tableMeta{file: string(take(get32()))}
			meta.smallest = take(get32())
			meta.largest = take(get32())
			meta.entries = get32()
			levels[lvl] = append(levels[lvl], meta)
		}
	}
	return nextNum, levels, ok && len(buf) == 0
}

// loadManifest opens the tables the manifest names and removes what a
// failed flush or compaction left beside them.
func (db *DB) loadManifest() error {
	path := db.manifestPath()
	buf, err := readAll(db.t, path)
	// writeManifestLocked unlinks the old manifest before it renames the
	// new one into place: with no MANIFEST, a complete MANIFEST.tmp is the
	// manifest, and an incomplete one belongs to a store that never had one.
	adopt := errors.Is(err, fsapi.ErrNotExist)
	if adopt {
		buf, err = readAll(db.t, path+".tmp")
	}
	if err != nil && !errors.Is(err, fsapi.ErrNotExist) {
		return err
	}
	nextNum, levels, ok := parseManifest(buf)
	switch {
	case ok && adopt:
		if err := db.t.Rename(path+".tmp", path); err != nil {
			return err
		}
	case !ok && !adopt:
		return fmt.Errorf("kv: %s is corrupt", path)
	case !ok:
		nextNum, levels = 0, nil
	}
	db.nextNum = nextNum
	if len(levels) > len(db.levels) {
		// Written with a larger MaxLevels: keep every table reachable.
		db.levels = append(db.levels, make([][]*tableMeta, len(levels)-len(db.levels))...)
	}
	named := map[string]bool{}
	for lvl, tables := range levels {
		db.levels[lvl] = tables
		for _, meta := range tables {
			if db.readers[meta.file], err = openTable(db.t, meta); err != nil {
				return err
			}
			_, name := fsapi.SplitPath(meta.file)
			named[name] = true
		}
	}
	names, err := db.t.Readdir(db.opts.Dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if name == "MANIFEST.tmp" || strings.HasPrefix(name, "sst-") && !named[name] {
			if err := db.t.Unlink(db.opts.Dir + "/" + name); err != nil {
				return err
			}
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
