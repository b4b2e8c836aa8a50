package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"arckfs/internal/fsapi"
)

// TestConcurrentReadersOneWriter checks the LevelDB-style contract: one
// writer mutating while readers Get concurrently never yields a torn or
// phantom value.
func TestConcurrentReadersOneWriter(t *testing.T) {
	db, _ := newStore(t, Options{MemtableBytes: 8 << 10, L0Tables: 2})
	const keys = 100
	// Values are self-describing so readers can validate integrity.
	valFor := func(k, ver int) []byte {
		return []byte(fmt.Sprintf("key%04d-ver%06d", k, ver))
	}
	for k := 0; k < keys; k++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", k)), valFor(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make([]error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(keys)
				got, err := db.Get([]byte(fmt.Sprintf("k%04d", k)))
				if err != nil {
					if errors.Is(err, fsapi.ErrNotExist) {
						continue // deleted by the writer; fine
					}
					errs[r] = err
					return
				}
				prefix := []byte(fmt.Sprintf("key%04d-ver", k))
				if !bytes.HasPrefix(got, prefix) {
					errs[r] = fmt.Errorf("torn value for k%04d: %q", k, got)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		for i := 1; i <= 1500; i++ {
			k := rng.Intn(keys)
			key := []byte(fmt.Sprintf("k%04d", k))
			if rng.Intn(10) == 0 {
				if err := db.Delete(key); err != nil {
					errs[3] = err
					break
				}
			} else if err := db.Put(key, valFor(k, i)); err != nil {
				errs[3] = err
				break
			}
		}
		close(stop)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

func TestLargeValuesAcrossFlushes(t *testing.T) {
	db, _ := newStore(t, Options{MemtableBytes: 32 << 10, L0Tables: 2})
	blob := make([]byte, 10_000)
	for i := range blob {
		blob[i] = byte(i * 13)
	}
	for i := 0; i < 30; i++ {
		key := []byte(fmt.Sprintf("big%02d", i))
		v := append(append([]byte{}, blob...), byte(i))
		if err := db.Put(key, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		got, err := db.Get([]byte(fmt.Sprintf("big%02d", i)))
		if err != nil || len(got) != len(blob)+1 || got[len(got)-1] != byte(i) {
			t.Fatalf("big%02d: len=%d err=%v", i, len(got), err)
		}
	}
}

func TestDeepCompactionCascade(t *testing.T) {
	db, _ := newStore(t, Options{MemtableBytes: 2 << 10, L0Tables: 2, LevelRatio: 2, MaxLevels: 4})
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("c%05d", i%700)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	stats := db.Stats()
	deep := 0
	for lvl := 1; lvl < len(stats); lvl++ {
		deep += stats[lvl]
	}
	if deep == 0 {
		t.Fatalf("no deep-level tables after cascade: %v", stats)
	}
	// Spot-check newest-wins.
	got, err := db.Get([]byte("c00099"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2899" { // last write of key 99: i=2899
		t.Fatalf("c00099 = %q", got)
	}
}

func TestIteratorAfterReopen(t *testing.T) {
	sys := newStoreFS(t)
	raw, err := Open(sys, Options{MemtableBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	db := checkedDB{raw, t}
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("it%03d", i)), []byte("x"))
	}
	db2, err := Open(sys, Options{MemtableBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	checkLevels(t, db2)
	keys, err := db2.Keys()
	if err != nil || len(keys) != 200 {
		t.Fatalf("keys after reopen: %d, %v", len(keys), err)
	}
}

func newStoreFS(t *testing.T) fsapi.FS {
	t.Helper()
	_, fs := newStore(t, Options{Dir: "/warmup"})
	return fs
}
