package workload

import (
	"errors"

	"arckfs"
	"arckfs/internal/fsapi"
	"arckfs/internal/kv"
)

// kvCrashCheck is kv_app's power-failure check. A short crash-tracking
// instance replays the start of the same seeded sequence (the in-order
// fill), commits to the kernel right after a seeded number of memtable
// flushes, keeps writing, and loses power at a seeded point with every
// unflushed line dropped. After recovery and reopening the store, each key
// acknowledged before the commit must read back with the value it had then
// or one acknowledged later; a key written after the commit may be absent,
// but if present must carry a value that was really written.
//
// The commit is what makes a write durable here: at the commit that defined
// the benchmark, files created since the last release do not survive
// recovery, so a Put acknowledged after its WAL fsync alone is not yet
// durable (see benchmark/README.md).
func kvCrashCheck(g *gen, seed int64, m *mismatches) {
	sys, err := arckfs.New(arckfs.Options{DevSize: 64 << 20, CrashTracking: true})
	if err != nil {
		m.addf("kv crash check: %v", err)
		return
	}
	app := sys.NewApp()
	db, err := kv.Open(app, kvOptions)
	if err != nil {
		m.addf("kv crash check: open: %v", err)
		return
	}
	rng := newGen(seed ^ 0x6b76).rng
	flushesBeforeCommit := 1 + rng.Intn(3)
	afterCommit := 16 + rng.Intn(497)

	key := make([]byte, 12)
	val := make([]byte, kvValueLen)
	var acked []uint32 // acked[k]: latest acknowledged version of key k
	put := func(k int) bool {
		if k == len(acked) {
			acked = append(acked, 0)
		}
		g.fill(val, kvTag(k, acked[k]+1))
		if err := db.Put(kvKey(key, k), val); err != nil {
			m.addf("kv crash check: put %d: %v", k, err)
			return false
		}
		acked[k]++
		return true
	}
	tables := func() (n int) {
		for _, c := range db.Stats() {
			n += c
		}
		return n
	}
	for flushes, last := 0, 0; flushes < flushesBeforeCommit; {
		if !put(len(acked)) {
			return
		}
		if now := tables(); now != last {
			flushes, last = flushes+1, now
		}
	}
	if err := app.ReleaseAll(); err != nil {
		m.addf("kv crash check: commit: %v", err)
		return
	}
	committed := append([]uint32(nil), acked...)
	for i := 0; i < afterCommit; i++ {
		k := len(acked)
		if i%4 == 3 {
			k = rng.Intn(len(committed))
		}
		if !put(k) {
			return
		}
	}

	rec, _, err := arckfs.Recover(sys.CrashImage(arckfs.CrashDropAll), arckfs.Options{})
	if err != nil {
		m.addf("kv crash check: recover: %v", err)
		return
	}
	db, err = kv.Open(rec.NewApp(), kvOptions)
	if err != nil {
		m.addf("kv crash check: reopen: %v", err)
		return
	}
	for k := range acked {
		got, err := db.Get(kvKey(key, k))
		oldest := uint32(1)
		if k < len(committed) {
			oldest = committed[k]
		} else if errors.Is(err, fsapi.ErrNotExist) {
			continue
		}
		ok := false
		if err == nil && len(got) == kvValueLen {
			for v := oldest; v <= acked[k] && !ok; v++ {
				ok = g.matches(got, kvTag(k, v))
			}
		}
		if !ok {
			m.addf("kv crash check: key %d after power failure: err=%v, want a version in [%d,%d]", k, err, oldest, acked[k])
		}
	}
}
