package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"arckfs/internal/fsapi"
)

// checkedDB is a store whose every write that flushed is followed by
// checkLevels; newStore hands one out, so each scenario in this package
// pins the shape of the levels as it goes.
type checkedDB struct {
	*DB
	t testing.TB
}

func (c checkedDB) Put(key, val []byte) error {
	return c.checked(func() error { return c.DB.Put(key, val) })
}
func (c checkedDB) Delete(key []byte) error {
	return c.checked(func() error { return c.DB.Delete(key) })
}
func (c checkedDB) Flush() error { return c.checked(c.DB.Flush) }

func (c checkedDB) tablesWritten() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nextNum
}

func (c checkedDB) checked(write func() error) error {
	before := c.tablesWritten()
	err := write()
	if err == nil && c.tablesWritten() != before {
		checkLevels(c.t, c.DB)
	}
	return err
}

// checkLevels requires what maybeCompactLocked leaves behind: levels from
// 1 down sorted and pairwise disjoint, no level over its limit, and the
// manifest, the directory and the open readers naming the same tables.
func checkLevels(t testing.TB, db *DB) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	limit := db.opts.L0Tables
	if n := len(db.levels[0]); n >= limit {
		t.Errorf("level 0 holds %d tables, compacts at %d", n, limit)
	}
	var files []string
	for lvl, tables := range db.levels {
		for i, m := range tables {
			files = append(files, m.file)
			if bytes.Compare(m.smallest, m.largest) > 0 {
				t.Errorf("level %d table %s: range %q..%q", lvl, m.file, m.smallest, m.largest)
			}
			if lvl > 0 && i > 0 && bytes.Compare(tables[i-1].largest, m.smallest) >= 0 {
				t.Errorf("level %d: %s ends at %q, %s starts at %q", lvl, tables[i-1].file, tables[i-1].largest, m.file, m.smallest)
			}
		}
		if lvl == 0 || lvl == len(db.levels)-1 {
			continue
		}
		if limit *= db.opts.LevelRatio; len(tables) > limit {
			t.Errorf("level %d holds %d tables, limit %d", lvl, len(tables), limit)
		}
	}
	slices.Sort(files)

	// A thread of its own: readers may be using the store's.
	th := db.fs.NewThread(0)
	buf, err := readAll(th, db.manifestPath())
	if err != nil {
		t.Errorf("manifest: %v", err)
		return
	}
	_, levels, ok := parseManifest(buf)
	var named []string
	for _, tables := range levels {
		for _, m := range tables {
			named = append(named, m.file)
		}
	}
	slices.Sort(named)
	if !ok || !slices.Equal(named, files) {
		t.Errorf("manifest (complete: %v) names %v, levels hold %v", ok, named, files)
	}
	if onFS := tableFiles(t, th, db.opts.Dir); !slices.Equal(onFS, files) {
		t.Errorf("directory holds %v, levels hold %v", onFS, files)
	}
	if len(db.readers) != len(files) {
		t.Errorf("%d readers open for %d tables", len(db.readers), len(files))
	}
	for _, f := range files {
		if db.readers[f] == nil {
			t.Errorf("no reader for %s", f)
		}
	}
}

// tableFiles lists the sst-* files of dir, sorted.
func tableFiles(t testing.TB, th fsapi.Thread, dir string) []string {
	t.Helper()
	names, err := th.Readdir(dir)
	if err != nil {
		t.Errorf("readdir %s: %v", dir, err)
	}
	var files []string
	for _, name := range names {
		if strings.HasPrefix(name, "sst-") {
			files = append(files, dir+"/"+name)
		}
	}
	slices.Sort(files)
	return files
}

// compactAll pushes every level into the next, top down, so that all
// data ends in the deepest level it can reach.
func compactAll(t testing.TB, db *DB) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	for lvl := 0; lvl < len(db.levels)-1; lvl++ {
		if len(db.levels[lvl]) == 0 {
			continue
		}
		if err := db.compactLocked(lvl, db.levels[lvl]); err != nil {
			t.Fatal(err)
		}
	}
}

// probeFS wraps a file system for the tests that need to see or break the
// store's I/O: it counts the bytes written to sst-* files and, once armed,
// fails the failAt-th Unlink, WriteAt or Rename from then on.
type probeFS struct {
	fsapi.FS
	tableBytes int64
	failAt     int // 0: never
	calls      int
}

var errInjected = errors.New("injected I/O failure")

func (p *probeFS) NewThread(cpu int) fsapi.Thread {
	return &probeThread{Thread: p.FS.NewThread(cpu), fs: p, paths: map[fsapi.FD]string{}}
}

type probeThread struct {
	fsapi.Thread
	fs    *probeFS
	paths map[fsapi.FD]string
}

func (p *probeThread) fail() bool {
	p.fs.calls++
	return p.fs.calls == p.fs.failAt
}

func (p *probeThread) Open(path string) (fsapi.FD, error) {
	fd, err := p.Thread.Open(path)
	if err == nil {
		p.paths[fd] = path
	}
	return fd, err
}

func (p *probeThread) WriteAt(fd fsapi.FD, b []byte, off int64) (int, error) {
	if p.fail() {
		return 0, errInjected
	}
	if strings.Contains(p.paths[fd], "/sst-") {
		p.fs.tableBytes += int64(len(b))
	}
	return p.Thread.WriteAt(fd, b, off)
}

func (p *probeThread) Unlink(path string) error {
	if p.fail() {
		return errInjected
	}
	return p.Thread.Unlink(path)
}

func (p *probeThread) Rename(oldPath, newPath string) error {
	if p.fail() {
		return errInjected
	}
	return p.Thread.Rename(oldPath, newPath)
}

func seqKey(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// fillOverwrite is kv_app's write pattern: keys put in order, then three
// quarters as many random overwrites. It returns the table bytes written
// per user byte in each phase; with check set, checkLevels follows every
// flush.
func fillOverwrite(t testing.TB, opts Options, keys int, check bool) (db *DB, fill, overwrite float64) {
	t.Helper()
	_, fs := newStore(t, Options{Dir: "/warmup"})
	probe := &probeFS{FS: fs}
	db, err := Open(probe, opts)
	if err != nil {
		t.Fatal(err)
	}
	write := db.Put
	if check {
		write = checkedDB{db, t}.Put
	}
	val := make([]byte, 100)
	user := 0
	put := func(k int) {
		if err := write(seqKey(k), val); err != nil {
			t.Fatal(err)
		}
		user += 9 + len(val)
	}
	for k := 0; k < keys; k++ {
		put(k)
	}
	fill = float64(probe.tableBytes) / float64(user)
	probe.tableBytes, user = 0, 0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < keys*3/4; i++ {
		put(rng.Intn(keys))
	}
	return db, fill, float64(probe.tableBytes) / float64(user)
}

// An in-order fill moves every table down without rewriting it, so each
// entry is written once; random overwrites rewrite only what they overlap.
// When every L0Tables-th flush rewrote the whole store, this fill wrote
// 10.80 table bytes per user byte and the overwrites 18.45; they measure
// 1.08 and 7.14.
func TestWriteAmplification(t *testing.T) {
	db, fill, overwrite := fillOverwrite(t, Options{MemtableBytes: 16 << 10}, 8000, true)
	t.Logf("table bytes per user byte: fill %.2f, overwrite %.2f; levels %v", fill, overwrite, db.Stats())
	if fill > 1.1 {
		t.Errorf("in-order fill wrote %.2f table bytes per user byte, want each entry written once", fill)
	}
	if overwrite > 8 {
		t.Errorf("random overwrites wrote %.2f table bytes per user byte, pinned under 8", overwrite)
	}
}

// BenchmarkFillOverwrite is kv_app's 140 000 Puts at its memtable size;
// table-B/user-B is the write amplification of the tables alone.
func BenchmarkFillOverwrite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, fill, overwrite := fillOverwrite(b, Options{MemtableBytes: 256 << 10}, 80000, false)
		b.ReportMetric((4*fill+3*overwrite)/7, "table-B/user-B")
	}
}

// LevelRatio and MaxLevels decide where an in-order fill comes to rest:
// level lvl keeps L0Tables × LevelRatio^lvl tables and the deepest level
// takes the rest.
func TestLevelOptionsShapeTheTree(t *testing.T) {
	for _, c := range []struct {
		ratio, levels int
		want          []int
	}{
		{ratio: 2, levels: 3, want: []int{0, 4, 20}},
		{ratio: 4, levels: 3, want: []int{0, 8, 16}},
		{ratio: 2, levels: 4, want: []int{0, 4, 8, 12}},
		{ratio: 2, levels: 2, want: []int{0, 24}},
	} {
		db, _ := newStore(t, Options{MemtableBytes: 4 << 10, L0Tables: 2, LevelRatio: c.ratio, MaxLevels: c.levels})
		for k := 0; db.tablesWritten() < 24; k++ {
			if err := db.Put(seqKey(k), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if got := db.Stats(); !slices.Equal(got, c.want) {
			t.Errorf("LevelRatio %d, MaxLevels %d: levels %v, want %v", c.ratio, c.levels, got, c.want)
		}
	}
}

// A deleted key leaves nothing behind once its tombstone has met every
// older version: compaction drops a tombstone that no deeper table covers.
func TestTombstonesAreDropped(t *testing.T) {
	db, fs := newStore(t, Options{MemtableBytes: 4 << 10, L0Tables: 2, MaxLevels: 4})
	const n = 600
	for _, k := range rand.New(rand.NewSource(2)).Perm(n) {
		if err := db.Put(seqKey(k), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range rand.New(rand.NewSource(3)).Perm(n) {
		if err := db.Delete(seqKey(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	compactAll(t, db.DB)
	checkLevels(t, db.DB)
	if stats := db.Stats(); slices.Max(stats) != 0 {
		t.Errorf("levels %v after every key was deleted and compacted", stats)
	}
	if files := tableFiles(t, fs.NewThread(0), "/db"); len(files) != 0 {
		t.Errorf("tables left behind: %v", files)
	}
	if keys, err := db.Keys(); err != nil || len(keys) != 0 {
		t.Errorf("keys after deleting all: %v, %v", keys, err)
	}
}

// A flush and the compaction behind it may stop at any Unlink, WriteAt or
// Rename: the store reopens on the same file system, holds every
// acknowledged key, and has removed what the failed step left behind.
func TestReopenAfterFailedCompaction(t *testing.T) {
	opts := Options{MemtableBytes: 4 << 10, L0Tables: 2, MaxLevels: 3}
	for failAt, calls := 1, 1; failAt <= calls; failAt++ {
		_, fs := newStore(t, Options{Dir: "/warmup"})
		probe := &probeFS{FS: fs}
		db, err := Open(probe, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		acked := map[string]string{}
		put := func() {
			k, v := seqKey(rng.Intn(200)), fmt.Sprint("v", len(acked), rng.Int())
			if err := db.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			acked[string(k)] = v
		}
		// Overlapping tables in levels 0 and 1 and a memtable with
		// entries: the next flush fills level 0, and the compaction
		// behind it merges, installs and unlinks.
		for stats := db.Stats(); stats[0] != opts.L0Tables-1 || stats[1] == 0; stats = db.Stats() {
			put()
		}
		for i := 0; i < 20; i++ {
			put()
		}
		probe.calls, probe.failAt = 0, failAt
		err = db.Flush()
		calls, probe.failAt = probe.calls, 0
		if failed := failAt <= calls; failed != errors.Is(err, errInjected) {
			t.Fatalf("call %d of %d failed: Flush returned %v", failAt, calls, err)
		}

		db, err = Open(probe, opts)
		if err != nil {
			t.Fatalf("call %d of %d failed: reopen: %v", failAt, calls, err)
		}
		for k, v := range acked {
			if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
				t.Fatalf("call %d of %d failed: Get(%s) = %q, %v, want %q", failAt, calls, k, got, err, v)
			}
		}
		checkLevels(t, db)
	}
}
