package kv

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"arckfs/internal/baseline"
	"arckfs/internal/core"
	"arckfs/internal/fsapi"
)

// A record appended after a replay that stopped short must be found by the
// next replay: Open cuts the log at the end of its last whole record
// instead of appending past the stretch it could not parse.
func TestWALAppendAfterTornTail(t *testing.T) {
	fs := newStoreFS(t)
	db, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	// A zeroed stretch inside the size, as a torn tail leaves it.
	th := fs.NewThread(0)
	st, err := th.Stat("/db/wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Truncate("/db/wal", st.Size+walAlign); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(fs, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(fs, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if _, err := db.Get([]byte(k)); err != nil {
			t.Errorf("Get(%s) after reopen: %v", k, err)
		}
	}
}

// A Put's record is whole lines, so it streams them: no line of the log is
// stored and flushed. Per Put on ArckFS+, past a warm-up: the record's
// lines plus the inode record's line streamed, two fences (data, then the
// inode record), and for each fresh block a flush of its map entry and a
// fence between the entry and the size.
func TestPutStreamsWholeLines(t *testing.T) {
	const warmup, puts = 40, 3200
	for _, c := range []struct {
		name    string
		keyLen  int
		nt      int64 // per Put
		flushes int64 // the map entries of the blocks the puts begin
	}{
		{"kv_app", 12, 3, 100},              // 125 bytes padded to 128: blocks 2..101, 1/32 per Put
		{"experiments.LevelDB", 16, 4, 150}, // 129 padded to 192: blocks 2..151
	} {
		sys, err := core.NewSystem(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(sys.NewApp(0, 0), Options{})
		if err != nil {
			t.Fatal(err)
		}
		key, val := make([]byte, c.keyLen), make([]byte, 100)
		put := func(i int) {
			copy(key, fmt.Sprintf("%0*d", c.keyLen, i))
			if err := db.Put(key, val); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < warmup; i++ {
			put(i)
		}
		d := &sys.Dev.Stats
		nt, fences, flushes := d.NTStores.Load(), d.Fences.Load(), d.Flushes.Load()
		for i := warmup; i < warmup+puts; i++ {
			put(i)
		}
		nt, fences, flushes = d.NTStores.Load()-nt, d.Fences.Load()-fences, d.Flushes.Load()-flushes
		if nt != c.nt*puts || fences != 2*puts+c.flushes || flushes != c.flushes {
			t.Errorf("%s: %d Puts streamed %d lines, fenced %d times, flushed %d lines; want %d, %d, %d",
				c.name, puts, nt, fences, flushes, c.nt*puts, 2*puts+c.flushes, c.flushes)
		}
	}
}

// Records of every total from the bare header to 320 bytes, tombstones
// among them, survive a reopen without Close; each takes its padded length
// of the log and starts on a line, and some straddle a block.
func TestWALRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name string
		fs   func(*testing.T) fsapi.FS
	}{
		{"arckfs+", newStoreFS},
		{"nova", func(t *testing.T) fsapi.FS {
			fs, err := baseline.New("nova", 128<<20, nil)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
	} {
		t.Run(c.name, func(t *testing.T) { walRoundTrip(t, c.fs(t)) })
	}
}

func walRoundTrip(t *testing.T, fs fsapi.FS) {
	db, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, gone := map[string][]byte{}, map[string]bool{}
	straddled := 0
	// record appends one record of total bytes through Put or Delete.
	record := func(total int, key []byte, del bool) {
		t.Helper()
		start := db.wal.off
		var err error
		if del {
			err = db.Delete(key)
			delete(want, string(key))
			gone[string(key)] = true
		} else {
			val := bytes.Repeat([]byte{byte(total)}, total-walHeader-len(key))
			err = db.Put(key, val)
			want[string(key)] = val
			delete(gone, string(key))
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := db.wal.off - start; start%walAlign != 0 || n != int64(padded(total)) {
			t.Fatalf("record of %d bytes at %d took %d bytes of the log, want %d at a multiple of %d",
				total, start, n, padded(total), walAlign)
		}
		if start/4096 != (db.wal.off-1)/4096 {
			straddled++
		}
	}
	// The bare header (the empty key, which Delete refuses) goes in
	// through the log itself.
	if err := db.wal.append(nil, nil, true); err != nil {
		t.Fatal(err)
	}
	for total := walHeader + 1; total < walHeader+3; total++ {
		record(total, bytes.Repeat([]byte("t"), total-walHeader), true)
	}
	for total := walHeader + 3; total <= 320; total++ {
		record(total, []byte(fmt.Sprintf("%03d", total)), false)
	}
	for _, total := range []int{63, 64, 65, 127, 128, 129} {
		record(walHeader+3, []byte(fmt.Sprintf("%03d", total)), true)
	}
	if straddled == 0 {
		t.Fatal("no record straddles a block")
	}

	db2, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.wal.off != db.wal.off {
		t.Errorf("reopened log appends at %d, the last record ends at %d", db2.wal.off, db.wal.off)
	}
	for k, v := range want {
		if got, err := db2.Get([]byte(k)); err != nil || !bytes.Equal(got, v) {
			t.Errorf("Get(%s) after reopen = %d bytes, %v; want %d bytes", k, len(got), err, len(v))
		}
	}
	for k := range gone {
		if _, err := db2.Get([]byte(k)); !errors.Is(err, fsapi.ErrNotExist) {
			t.Errorf("deleted %s after reopen: %v", k, err)
		}
	}
}
