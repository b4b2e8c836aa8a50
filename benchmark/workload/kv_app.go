package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"arckfs/internal/fsapi"
	"arckfs/internal/kv"
)

const (
	kvValueLen = 100
	kvMemtable = 256 << 10 // small, so flushes and several compactions happen
)

var kvOptions = kv.Options{Dir: "/db", MemtableBytes: kvMemtable}

// kvApp runs the LSM store of internal/kv over the file system: the first
// 40 % of the sequence fills keys in order, the next 30 % overwrites random
// keys, the last 30 % reads random keys of which 80 % exist. One op is one
// Put or Get.
type kvApp struct {
	g    *gen
	tr   *Tracer
	db   *kv.DB
	key  []byte
	val  []byte
	i    int
	fill int
	over int
	// Oracle: versions[k] is the version last put for key k (0: never).
	versions []uint32
	tables   []int // table counts per level after the previous Put (traced run)
	user     int64
}

func (w *kvApp) setup(e *env) error {
	w.g = newGen(e.cfg.Seed)
	w.tr = e.tr
	w.key = make([]byte, 12)
	w.val = make([]byte, kvValueLen)
	total := e.totalOps()
	w.fill = total * 2 / 5
	w.over = total * 3 / 10
	w.versions = make([]uint32, w.fill)
	var err error
	w.db, err = kv.Open(e.app, kvOptions)
	return err
}

// kvKey formats key k into buf: fixed width, so byte order is key order.
func kvKey(buf []byte, k int) []byte {
	buf[0] = 'k'
	for i := len(buf) - 1; i > 0; i-- {
		buf[i] = byte('0' + k%10)
		k /= 10
	}
	return buf
}

func kvTag(k int, version uint32) uint64 { return uint64(k)<<20 | uint64(version) }

func (w *kvApp) steps() []func() error { return []func() error{w.step} }

func (w *kvApp) step() error {
	i := w.i
	w.i++
	switch {
	case i < w.fill:
		return w.put(i)
	case i < w.fill+w.over:
		return w.put(w.g.rng.Intn(w.fill))
	default:
		k := w.g.rng.Intn(w.fill * 5 / 4)
		w.g.mix(spKVGet, uint64(k), 0)
		s := w.tr.Begin(spKVGet)
		val, err := w.db.Get(kvKey(w.key, k))
		w.tr.End(s)
		if k >= w.fill || w.versions[k] == 0 {
			if !errors.Is(err, fsapi.ErrNotExist) {
				return fmt.Errorf("get absent key %d: %v", k, err)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if want := kvTag(k, w.versions[k]); len(val) != kvValueLen || binary.LittleEndian.Uint64(val) != want {
			return fmt.Errorf("get key %d: %d bytes, tag %d, oracle has %d", k, len(val), binary.LittleEndian.Uint64(val), want)
		}
		return nil
	}
}

func (w *kvApp) put(k int) error {
	version := w.versions[k] + 1
	w.g.mix(spKVPut, uint64(k), uint64(version))
	w.g.fill(w.val, kvTag(k, version))
	s := w.tr.Begin(spKVPut)
	err := w.db.Put(kvKey(w.key, k), w.val)
	w.tr.End(s)
	if err != nil {
		return err
	}
	w.versions[k] = version
	w.user += int64(len(w.key) + len(w.val))
	if w.tr != nil {
		// A Put after which the table set differs flushed the memtable
		// (and perhaps compacted): record it again as a kv.flush span.
		if now := w.db.Stats(); !slices.Equal(now, w.tables) {
			w.tables = now
			w.tr.spans = append(w.tr.spans, rawSpan{parent: s, name: spKVFlush, start: w.tr.spans[s].start, end: w.tr.spans[s].end})
		}
	}
	return nil
}

// scan walks the whole store with an iterator and checks every entry
// against the oracle; it is timed on its own (kv.scan_ms).
func (w *kvApp) scan(db *kv.DB, m *mismatches) {
	it, err := db.NewIterator()
	if err != nil {
		m.addf("kv iterator: %v", err)
		return
	}
	k := 0
	for it.Next() {
		for k < w.fill && w.versions[k] == 0 {
			k++
		}
		if k == w.fill {
			m.addf("kv scan: key %q beyond the oracle's last key", it.Key())
			return
		}
		if !bytes.Equal(it.Key(), kvKey(w.key, k)) || !w.g.matches(it.Value(), kvTag(k, w.versions[k])) || len(it.Value()) != kvValueLen {
			m.addf("kv scan: got key %q, oracle expects key %d version %d with matching value", it.Key(), k, w.versions[k])
			return
		}
		k++
	}
	for ; k < w.fill; k++ {
		if w.versions[k] != 0 {
			m.addf("kv scan: ended before key %d", k)
			return
		}
	}
}

func (w *kvApp) tablesEnd() int {
	n := 0
	for _, c := range w.db.Stats() {
		n += c
	}
	return n
}

func (w *kvApp) quiesce() error { return w.db.Close() }

// check reopens the store on fs (a fresh application on the live or the
// recovered system) and requires every key to read back as the oracle has
// it, by point lookups and by a full scan.
func (w *kvApp) check(fs fsapi.FS, m *mismatches) {
	db, err := kv.Open(fs, kvOptions)
	if err != nil {
		m.addf("kv reopen: %v", err)
		return
	}
	for k, version := range w.versions {
		val, err := db.Get(kvKey(w.key, k))
		switch {
		case version == 0 && !errors.Is(err, fsapi.ErrNotExist):
			m.addf("kv get absent key %d: %v", k, err)
		case version != 0 && (err != nil || len(val) != kvValueLen || !w.g.matches(val, kvTag(k, version))):
			m.addf("kv get key %d version %d: mismatch (err %v)", k, version, err)
		}
	}
	w.scan(db, m)
}

func (w *kvApp) userBytes() int64 { return w.user }
func (w *kvApp) seqHash() uint64  { return w.g.hash }
