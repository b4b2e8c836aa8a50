package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"arckfs/internal/baseline"
	"arckfs/internal/core"
	"arckfs/internal/fsapi"
)

func newStore(t testing.TB, opts Options) (checkedDB, fsapi.FS) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{DevSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	app := sys.NewApp(0, 0)
	db, err := Open(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	return checkedDB{db, t}, app
}

func TestPutGetDelete(t *testing.T) {
	db, _ := newStore(t, Options{})
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k1"))
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := db.Put([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ = db.Get([]byte("k1"))
	if string(got) != "v2" {
		t.Fatalf("overwrite lost: %q", got)
	}
	if err := db.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k1")); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("deleted key: %v", err)
	}
	if _, err := db.Get([]byte("never")); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("missing key: %v", err)
	}
	if err := db.Put(nil, []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestFlushAndCompactionPreserveData(t *testing.T) {
	db, _ := newStore(t, Options{MemtableBytes: 8 << 10, L0Tables: 2, MaxLevels: 4})
	want := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%05d", i%500)
		v := fmt.Sprintf("val-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Compactions must have run.
	stats := db.Stats()
	total := 0
	for _, n := range stats {
		total += n
	}
	if total == 0 {
		t.Fatal("no tables on disk after 2000 writes")
	}
	for k, v := range want {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v (want %q); levels=%v", k, got, err, v, stats)
		}
	}
}

func TestTombstonesSurviveCompaction(t *testing.T) {
	db, _ := newStore(t, Options{MemtableBytes: 4 << 10, L0Tables: 2, MaxLevels: 4})
	for i := 0; i < 300; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("x"), 64))
	}
	for i := 0; i < 300; i += 2 {
		if err := db.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Churn to force more flushes and compactions.
	for i := 0; i < 300; i++ {
		db.Put([]byte(fmt.Sprintf("pad%04d", i)), bytes.Repeat([]byte("y"), 64))
	}
	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		_, err := db.Get(k)
		if i%2 == 0 {
			if !errors.Is(err, fsapi.ErrNotExist) {
				t.Fatalf("deleted %s resurfaced: %v", k, err)
			}
		} else if err != nil {
			t.Fatalf("surviving %s lost: %v", k, err)
		}
	}
}

func TestReopenRecoversFromManifestAndWAL(t *testing.T) {
	sys, err := core.NewSystem(core.Config{DevSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	app := sys.NewApp(0, 0)
	raw, err := Open(app, Options{MemtableBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	db := checkedDB{raw, t}
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("p%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	// Do NOT close: the memtable tail lives only in the WAL.
	db2, err := Open(app, Options{MemtableBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	checkLevels(t, db2)
	for i := 0; i < 500; i++ {
		got, err := db2.Get([]byte(fmt.Sprintf("p%04d", i)))
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after reopen Get(p%04d) = %q, %v", i, got, err)
		}
	}
}

func TestIteratorOrderAndShadowing(t *testing.T) {
	db, _ := newStore(t, Options{MemtableBytes: 2 << 10, L0Tables: 2})
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("it%04d", i)), []byte("old"))
	}
	// Overwrite some, delete some; newest versions must win.
	for i := 0; i < 200; i += 3 {
		db.Put([]byte(fmt.Sprintf("it%04d", i)), []byte("new"))
	}
	for i := 1; i < 200; i += 3 {
		db.Delete([]byte(fmt.Sprintf("it%04d", i)))
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	seen := 0
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("iterator out of order: %q then %q", prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		i := 0
		fmt.Sscanf(string(it.Key()), "it%04d", &i)
		switch i % 3 {
		case 0:
			if string(it.Value()) != "new" {
				t.Fatalf("key %q = %q, want new", it.Key(), it.Value())
			}
		case 1:
			t.Fatalf("deleted key %q visible", it.Key())
		case 2:
			if string(it.Value()) != "old" {
				t.Fatalf("key %q = %q, want old", it.Key(), it.Value())
			}
		}
		seen++
	}
	want := 200 - len43(200) // 200 minus the deleted third
	if seen != want {
		t.Fatalf("iterator saw %d keys, want %d", seen, want)
	}
}

// len43 counts i in [0,200) with i%3==1.
func len43(n int) int {
	c := 0
	for i := 1; i < n; i += 3 {
		c++
	}
	return c
}

func TestOnNovaBaseline(t *testing.T) {
	fs, err := baseline.New("nova", 128<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Open(fs, Options{MemtableBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	db := checkedDB{raw, t}
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("n%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Get([]byte("n0042")); err != nil {
		t.Fatal(err)
	}
}

// Property: the store behaves like a map under random operations with
// random flush points.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, _ := newStore(t, Options{MemtableBytes: 4 << 10, L0Tables: 2, MaxLevels: 3})
		model := map[string]string{}
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("q%03d", rng.Intn(80))
			switch rng.Intn(4) {
			case 0, 1:
				v := fmt.Sprintf("v%d", rng.Int63())
				if db.Put([]byte(k), []byte(v)) != nil {
					return false
				}
				model[k] = v
			case 2:
				if db.Delete([]byte(k)) != nil {
					return false
				}
				delete(model, k)
			case 3:
				got, err := db.Get([]byte(k))
				want, ok := model[k]
				if ok != (err == nil) {
					return false
				}
				if ok && string(got) != want {
					return false
				}
			}
			if rng.Intn(100) == 0 {
				if db.Flush() != nil {
					return false
				}
			}
		}
		keys, err := db.Keys()
		if err != nil || len(keys) != len(model) {
			return false
		}
		for _, k := range keys {
			if _, ok := model[k]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
