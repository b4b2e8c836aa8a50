package kv

import (
	"bytes"
	"container/heap"
	"sort"
)

// Iterator walks live keys in ascending order over a consistent view of
// the store (memtable + every table at creation time).
type Iterator struct {
	h       iterHeap
	current struct {
		key []byte
		val []byte
		ok  bool
	}
}

// source is one sorted input to the merge.
type source struct {
	prio int // lower wins ties (newer data)
	key  []byte
	val  []byte
	del  bool
	next func() bool // advances; false at exhaustion
}

type iterHeap []*source

func (h iterHeap) Len() int { return len(h) }
func (h iterHeap) Less(i, j int) bool {
	if c := bytes.Compare(h[i].key, h[j].key); c != 0 {
		return c < 0
	}
	return h[i].prio < h[j].prio
}
func (h iterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *iterHeap) Push(x any)   { *h = append(*h, x.(*source)) }
func (h *iterHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h iterHeap) Peek() *source { return h[0] }

// runSource is a merge input over the entry sections of tables whose key
// ranges ascend without overlap: one level-0 table, or part of a deeper
// level. It returns nil when the run holds no entry.
func runSource(prio int, run [][]byte) *source {
	s := &source{prio: prio}
	pos := 0
	s.next = func() bool {
		for len(run) > 0 && pos+8 > len(run[0]) {
			run, pos = run[1:], 0
		}
		if len(run) == 0 {
			return false
		}
		s.key, s.val, s.del, pos = decodeEntry(run[0], pos)
		return true
	}
	if !s.next() {
		return nil
	}
	return s
}

// runsOf splits the tables of one level into sorted runs, newest first:
// level-0 tables overlap, so each is its own run; a deeper level is one.
func runsOf(lvl int, tables []*tableMeta) [][]*tableMeta {
	if lvl > 0 {
		return [][]*tableMeta{tables}
	}
	runs := make([][]*tableMeta, len(tables))
	for i := range tables {
		runs[i] = tables[i : i+1]
	}
	return runs
}

// sources reads the entry sections of runs (newest first) and returns
// them as merge inputs with priorities from prio up.
func (db *DB) sources(prio int, runs [][]*tableMeta) (iterHeap, error) {
	var h iterHeap
	for _, tables := range runs {
		run := make([][]byte, len(tables))
		for i, meta := range tables {
			var err error
			if run[i], err = db.readers[meta.file].load(); err != nil {
				return nil, err
			}
		}
		if s := runSource(prio, run); s != nil {
			h = append(h, s)
		}
		prio++
	}
	return h, nil
}

// NewIterator creates a merged iterator positioned before the first key.
func (db *DB) NewIterator() (*Iterator, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()

	// Table sources: every entry section is read now (tables are
	// immutable; this snapshot stays consistent after the lock drops).
	var runs [][]*tableMeta
	for lvl, tables := range db.levels {
		runs = append(runs, runsOf(lvl, tables)...)
	}
	h, err := db.sources(1, runs)
	if err != nil {
		return nil, err
	}

	// Memtable source: its entries now. The arena never reuses memory, so
	// these slices hold their bytes while later writes overwrite entries,
	// insert others or flush the memtable.
	if db.mem.entries > 0 {
		type entry struct {
			key, val []byte
			del      bool
		}
		snap := make([]entry, 0, db.mem.entries)
		db.mem.iter(func(k, v []byte, del bool) bool {
			snap = append(snap, entry{k, v, del})
			return true
		})
		s := &source{prio: 0}
		s.next = func() bool {
			if len(snap) == 0 {
				return false
			}
			s.key, s.val, s.del = snap[0].key, snap[0].val, snap[0].del
			snap = snap[1:]
			return true
		}
		s.next()
		h = append(h, s)
	}
	heap.Init(&h)
	return &Iterator{h: h}, nil
}

// pop removes the smallest key from the merge and returns its newest
// version; the slices alias the sources' buffers.
func (h *iterHeap) pop() (key, val []byte, del bool) {
	s := h.Peek()
	key, val, del = s.key, s.val, s.del
	// Older versions of the key sort right behind it.
	for h.Len() > 0 && bytes.Equal(h.Peek().key, key) {
		if s := h.Peek(); s.next() {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return key, val, del
}

// Next advances to the next live key and reports whether one exists.
func (it *Iterator) Next() bool {
	for it.h.Len() > 0 {
		key, val, del := it.h.pop()
		if del {
			continue
		}
		it.current.key = append([]byte(nil), key...)
		it.current.val = append([]byte(nil), val...)
		it.current.ok = true
		return true
	}
	it.current.ok = false
	return false
}

// Key returns the current key (valid after Next reported true).
func (it *Iterator) Key() []byte { return it.current.key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.current.val }

// Keys collects every live key (tests and sanity checks).
func (db *DB) Keys() ([]string, error) {
	it, err := db.NewIterator()
	if err != nil {
		return nil, err
	}
	var keys []string
	for it.Next() {
		keys = append(keys, string(it.Key()))
	}
	sort.Strings(keys)
	return keys, nil
}
