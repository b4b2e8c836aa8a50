package kernel

import (
	"fmt"
	"testing"
	"time"

	"arckfs/internal/layout"
	"arckfs/internal/telemetry"
	"arckfs/internal/verifier"
)

// TestAcquireGuardSameUnderBothEpochs drives every outcome of the acquire
// guard through both lock disciplines — the shard-locked fast path and the
// exclusive epoch — on identically prepared controllers, and requires the
// same verdict from each. The one documented difference is the expired
// lease: only the exclusive epoch may run the involuntary release, so the
// fast path punts. A check present under one discipline and missing under
// the other (the paper's §4.1 shape) fails here.
func TestAcquireGuardSameUnderBothEpochs(t *testing.T) {
	const root = layout.RootIno
	type attempt struct {
		app   AppID
		ino   uint64
		write bool
	}
	// rootShadow reaches into the root's shadow entry; the test is the
	// only thread, so no lock is needed.
	rootShadow := func(h *harness) *shadowEnt { return h.c.shadowGet(root, nil) }
	mustAcquire := func(h *harness, app AppID) {
		h.t.Helper()
		if _, err := h.c.Acquire(app, root, true); err != nil {
			h.t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		setup func(h *harness) attempt
		// want is the verdict under both disciplines; fast, when set,
		// replaces it for the shard-locked path.
		want, fast string
	}{
		{name: "unknown app", want: "error: kernel: unknown app 99",
			setup: func(h *harness) attempt { return attempt{99, root, true} }},
		{name: "missing inode", want: "error: no such file or directory",
			setup: func(h *harness) attempt { return attempt{h.c.RegisterApp(0, 0), 77, true} }},
		{name: "foreign uncommitted inode", want: "error: no such file or directory",
			setup: func(h *harness) attempt {
				creator, other := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
				mustAcquire(h, creator)
				f := h.mkfile(creator, root, "pending")
				if err := h.c.commitOne(creator, root); err != nil {
					h.t.Fatal(err)
				}
				return attempt{other, f, false}
			}},
		{name: "inaccessible", want: "error: inode 1 marked inaccessible: permission denied",
			setup: func(h *harness) attempt {
				rootShadow(h).inaccessible = true
				return attempt{h.c.RegisterApp(0, 0), root, false}
			}},
		{name: "no write bit", want: "error: permission denied",
			setup: func(h *harness) attempt {
				rootShadow(h).info.Perm = layout.PermRead
				return attempt{h.c.RegisterApp(0, 0), root, true}
			}},
		{name: "no read bit", want: "error: permission denied",
			setup: func(h *harness) attempt {
				rootShadow(h).info.Perm = layout.PermWrite
				return attempt{h.c.RegisterApp(0, 0), root, false}
			}},
		{name: "ACL override denies", want: "error: permission denied",
			setup: func(h *harness) attempt {
				app := h.c.RegisterApp(0, 0)
				h.c.SetACL(root, app, layout.PermRead)
				return attempt{app, root, true}
			}},
		{name: "ACL override grants", want: "ok: owner=1 dormant=false involuntary=0 trust=0",
			setup: func(h *harness) attempt {
				app := h.c.RegisterApp(0, 0)
				rootShadow(h).info.Perm = 0
				h.c.SetACL(root, app, layout.PermRead|layout.PermWrite)
				return attempt{app, root, true}
			}},
		{name: "ACL override is per app", want: "ok: owner=2 dormant=false involuntary=0 trust=0",
			setup: func(h *harness) attempt {
				denied, other := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
				h.c.SetACL(root, denied, 0)
				return attempt{other, root, true}
			}},
		{name: "own active hold", want: "ok: owner=1 dormant=false involuntary=0 trust=0 same mapping",
			setup: func(h *harness) attempt {
				app := h.c.RegisterApp(0, 0)
				mustAcquire(h, app)
				return attempt{app, root, true}
			}},
		{name: "own dormant hold", want: "ok: owner=1 dormant=false involuntary=0 trust=0 same mapping",
			setup: func(h *harness) attempt {
				app := h.c.RegisterApp(0, 0)
				mustAcquire(h, app)
				if _, err := h.c.releaseLeased(app, root); err != nil {
					h.t.Fatal(err)
				}
				return attempt{app, root, true}
			}},
		{name: "peer's dormant hold", want: "ok: owner=2 dormant=false involuntary=0 trust=0",
			setup: func(h *harness) attempt {
				holder, other := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
				mustAcquire(h, holder)
				if _, err := h.c.releaseLeased(holder, root); err != nil {
					h.t.Fatal(err)
				}
				return attempt{other, root, true}
			}},
		{name: "busy", want: "error: inode 1 held by app 1: resource busy",
			setup: func(h *harness) attempt {
				holder, other := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
				mustAcquire(h, holder)
				return attempt{other, root, true}
			}},
		{name: "trust-group peer", want: "ok: owner=2 dormant=false involuntary=0 trust=1",
			setup: func(h *harness) attempt {
				holder, peer := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
				if _, err := h.c.NewTrustGroup(holder, peer); err != nil {
					h.t.Fatal(err)
				}
				mustAcquire(h, holder)
				return attempt{peer, root, true}
			}},
		{name: "expired lease", want: "ok: owner=2 dormant=false involuntary=1 trust=0", fast: "punt",
			setup: func(h *harness) attempt {
				now := time.Unix(5000, 0)
				h.c.SetClock(func() time.Time { return now })
				holder, other := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
				mustAcquire(h, holder)
				now = now.Add(time.Hour)
				return attempt{other, root, true}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, excl := range []bool{false, true} {
				h := newHarness(t, verifier.Enhanced)
				a := tc.setup(h)
				var prior *Mapping
				if se := h.c.shadowGet(a.ino, nil); se != nil {
					prior = se.mapping
				}
				var (
					m    *Mapping
					err  error
					punt bool
				)
				want := tc.want
				if excl {
					m, err = h.c.acquireExcl(a.app, a.ino, a.write)
				} else {
					out := []*Mapping{nil}
					err, punt = h.c.acquireBatchFast(a.app, []uint64{a.ino}, out, a.write, nil)
					m = out[0]
					if tc.fast != "" {
						want = tc.fast
					}
				}
				var got string
				switch {
				case punt:
					got = "punt"
				case err != nil:
					got = "error: " + err.Error()
				default:
					if !m.Valid() {
						t.Errorf("excl=%v: acquire returned a mapping that is not established", excl)
					}
					got = fmt.Sprintf("ok: owner=%d dormant=%v involuntary=%d trust=%d", h.c.OwnerOf(a.ino),
						m.dormant.Load(), h.c.Stats.Involuntary.Load(), h.c.Stats.TrustTransfers.Load())
					if m == prior {
						got += " same mapping"
					}
				}
				if got != want {
					t.Errorf("excl=%v: %s\n\twant %s", excl, got, want)
				}
			}
		})
	}
}

// TestShardStatsKinds: the counted control-plane locks are the nShadow
// shadow shards and the app table, nothing else; the table does not
// follow the app population, and the aggregate gauges built from it never
// run backwards.
func TestShardStatsKinds(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	set := telemetry.NewSet()
	h.c.RegisterTelemetry(set)
	checkRows := func() {
		t.Helper()
		rows := h.c.ShardStats()
		if len(rows) != nShadow+1 {
			t.Fatalf("%d rows, want %d shadow shards plus the app table", len(rows), nShadow)
		}
		for i, r := range rows[:nShadow] {
			if r.Kind != "shadow" || r.Index != i {
				t.Fatalf("row %d = %+v, want shadow shard %d", i, r, i)
			}
		}
		if last := rows[nShadow]; last.Kind != "apps" || last.Index != 0 {
			t.Fatalf("last row = %+v, want the app table", last)
		}
	}

	app := h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	h.mkfile(app, layout.RootIno, "f") // page grants: atomics now, no lock to count
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	checkRows()
	before := set.Snapshot()
	if before["kernel.shard.acquisitions"] == 0 {
		t.Fatal("a full acquire/release round counted no lock acquisition")
	}

	for range 10000 {
		h.c.RegisterApp(0, 0)
	}
	checkRows()
	after := set.Snapshot()
	for _, k := range []string{"kernel.shard.acquisitions", "kernel.shard.contended"} {
		if after[k] < before[k] {
			t.Errorf("%s fell from %d to %d across 10 000 registrations", k, before[k], after[k])
		}
	}
}
