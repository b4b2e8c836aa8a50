package kv

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"arckfs/internal/race"
)

// allocsPerOp is testing.AllocsPerRun without the rounding down: the heap
// objects one call of op allocates, averaged over runs calls, after one
// call to warm up.
func allocsPerOp(runs int, op func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestHotPathAllocations pins what the store's steady state leaves on the
// Go heap. A Put copies its key and value into the memtable's arena, which
// allocates a chunk or slab every few hundred Puts; a Get from a table
// reads its block into a pooled buffer and allocates only the value it
// returns.
func TestHotPathAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cdb, _ := newStore(t, Options{})
	db := cdb.DB
	key, val := make([]byte, 12), make([]byte, 100)
	setKey := func(i int) []byte { // "k%011d" without fmt's allocations
		key[0] = 'k'
		for j := len(key) - 1; j > 0; j, i = j-1, i/10 {
			key[j] = byte('0' + i%10)
		}
		return key
	}
	const puts = 4000 // 576 KiB of a 1 MiB memtable: no flush
	tables := cdb.tablesWritten()
	if got := allocsPerOp(puts, func(i int) {
		if err := db.Put(setKey(2*i), val); err != nil {
			t.Fatal(err)
		}
	}); got > 0.05 {
		t.Errorf("a Put that does not flush allocates %.4f objects, want ≤ 0.05", got)
	}
	if cdb.tablesWritten() != tables {
		t.Fatal("the Puts flushed; the pin measures the memtable path only")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		key  func(i int) []byte
		want float64
	}{
		{"Get from a table", func(i int) []byte { return setKey(2 * i) }, 1},          // the value it returns
		{"Get of an absent key", func(i int) []byte { return setKey(2*i + 1) }, 0},    // probes the same blocks
		{"Get past every table", func(i int) []byte { return setKey(2*puts + i) }, 0}, // probes none
	} {
		if got := allocsPerOp(1000, func(i int) {
			_, _ = db.Get(c.key(i % puts))
		}); got != c.want {
			t.Errorf("%s allocates %.4f objects, want %v", c.name, got, c.want)
		}
	}
}

// TestReusedMemoryIsNotAliased holds what outlives an operation against
// the memory the store reuses: the caller's key and value buffers, the
// memtable arena's chunks, the table writer's buffers and the pooled block
// buffers. An Iterator opened over a memtable and tables yields exactly its
// snapshot after overwrites, deletes, flushes and compactions; every
// table's smallest and largest keys match its contents; a value Get
// returned is unchanged by later Gets.
func TestReusedMemoryIsNotAliased(t *testing.T) {
	db, _ := newStore(t, Options{MemtableBytes: 4 << 10, L0Tables: 2, LevelRatio: 2})
	key, val := make([]byte, 8), make([]byte, 24)
	put := func(i, version int) {
		copy(key, fmt.Sprintf("k%07d", i))
		copy(val, fmt.Sprintf("v%07d-%015d", i, version))
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	const keys = 400
	for i := 0; i < keys; i++ {
		put(i, 0)
	}
	for i := 0; i < keys; i += 7 { // overwritten in the live memtable too
		put(i, 1)
	}
	want := map[string]string{}
	for i := 0; i < keys; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("k%07d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprintf("k%07d", i)] = string(v)
	}
	if db.mem.entries == 0 || len(db.readers) == 0 {
		t.Fatal("the snapshot must span the memtable and tables")
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	first, err := db.Get([]byte("k0000001")) // from the first table flushed
	if err != nil {
		t.Fatal(err)
	}
	firstWas := string(first)

	for i := keys - 1; i >= keys-50; i-- { // the newest first: still in the memtable the iterator read
		put(i, 99)
	}
	for version := 2; version < 12; version++ {
		for i := version % 3; i < keys+50; i += 2 {
			put(i, version)
		}
		for i := version; i < keys; i += 11 {
			copy(key, fmt.Sprintf("k%07d", i))
			if err := db.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
		if version%4 == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < keys; i++ {
		_, _ = db.Get([]byte(fmt.Sprintf("k%07d", i)))
	}
	if string(first) != firstWas {
		t.Errorf("a value Get returned changed to %q, was %q", first, firstWas)
	}

	n := 0
	for it.Next() {
		k := string(it.Key())
		if w, ok := want[k]; !ok || string(it.Value()) != w {
			t.Fatalf("iterator yields %s = %q; its snapshot holds %q (present %v)", k, it.Value(), w, ok)
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("iterator yields %d keys; its snapshot holds %d", n, len(want))
	}

	checked := 0
	for lvl, tables := range db.levels {
		for _, m := range tables {
			data, err := db.readers[m.file].load()
			if err != nil {
				t.Fatal(err)
			}
			var smallest, largest []byte
			entries := 0
			for pos := 0; pos+8 <= len(data); entries++ {
				var k []byte
				k, _, _, pos = decodeEntry(data, pos)
				if smallest == nil {
					smallest = k
				}
				largest = k
			}
			if !bytes.Equal(m.smallest, smallest) || !bytes.Equal(m.largest, largest) || m.entries != entries {
				t.Errorf("level %d %s: meta says [%q, %q] × %d, contents are [%q, %q] × %d",
					lvl, m.file, m.smallest, m.largest, m.entries, smallest, largest, entries)
			}
			checked++
		}
	}
	if checked < 4 || db.Stats()[1] == 0 {
		t.Fatalf("only %d tables, levels %v: the merges this test needs did not happen", checked, db.Stats())
	}
}
