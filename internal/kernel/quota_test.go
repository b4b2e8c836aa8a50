package kernel

import (
	"errors"
	"testing"

	"arckfs/internal/verifier"
)

// TestQuotaPageBoundary grants exactly up to MaxPages — the boundary
// must be inclusive — then checks one page more fails with ErrQuota,
// and that returning pages uncharges so the tenant can grant again.
func TestQuotaPageBoundary(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	if err := h.c.SetQuota(app, Quota{MaxPages: 8}); err != nil {
		t.Fatal(err)
	}

	pages, err := h.c.GrantPages(app, 0, 8)
	if err != nil {
		t.Fatalf("grant exactly at limit: %v", err)
	}
	if _, err := h.c.GrantPages(app, 0, 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("grant past limit: got %v, want ErrQuota", err)
	}

	h.c.ReturnPages(app, pages[:4])
	if _, err := h.c.GrantPages(app, 0, 4); err != nil {
		t.Fatalf("re-grant after return: %v", err)
	}
	u := usageOf(t, h.c, app)
	if u.PagesOut != 8 {
		t.Fatalf("outstanding pages %d, want 8", u.PagesOut)
	}
}

// TestQuotaInodeBoundary is the inode-grant twin: exactly MaxInodes
// succeeds, one more fails, and binding an inode to a committed
// creation is what uncharges it (outstanding-grant semantics).
func TestQuotaInodeBoundary(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	if err := h.c.SetQuota(app, Quota{MaxInodes: 4}); err != nil {
		t.Fatal(err)
	}

	if _, err := h.c.GrantInodes(app, 4); err != nil {
		t.Fatalf("grant exactly at limit: %v", err)
	}
	if _, err := h.c.GrantInodes(app, 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("grant past limit: got %v, want ErrQuota", err)
	}
	u := usageOf(t, h.c, app)
	if u.InodesGranted != 4 {
		t.Fatalf("outstanding inode grants %d, want 4", u.InodesGranted)
	}
}

// TestQuotaRaiseLowerWithGrantsParked covers runtime requota while
// grants are outstanding (a LibFS's pooled pages are exactly this
// state): lowering below current usage revokes nothing and only blocks
// further grants; raising unblocks immediately.
func TestQuotaRaiseLowerWithGrantsParked(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	if err := h.c.SetQuota(app, Quota{MaxPages: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.GrantPages(app, 0, 8); err != nil {
		t.Fatal(err)
	}

	// Lower below the 8 outstanding: nothing is revoked...
	if err := h.c.SetQuota(app, Quota{MaxPages: 4}); err != nil {
		t.Fatal(err)
	}
	if u := usageOf(t, h.c, app); u.PagesOut != 8 {
		t.Fatalf("lowering the quota revoked grants: %d outstanding, want 8", u.PagesOut)
	}
	// ...but further grants are blocked.
	if _, err := h.c.GrantPages(app, 0, 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("grant under lowered quota: got %v, want ErrQuota", err)
	}

	// Raise: the parked grants fit again and growth resumes.
	if err := h.c.SetQuota(app, Quota{MaxPages: 32}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.GrantPages(app, 0, 8); err != nil {
		t.Fatalf("grant after raise: %v", err)
	}

	// Clearing the quota (zero value) makes the tenant unlimited.
	if err := h.c.SetQuota(app, Quota{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.GrantPages(app, 0, 64); err != nil {
		t.Fatalf("grant after clear: %v", err)
	}
}

func usageOf(t *testing.T, c *Controller, app AppID) AppUsage {
	t.Helper()
	for _, u := range c.Usage() {
		if u.App == app {
			return u
		}
	}
	t.Fatalf("app %d not in usage table", app)
	return AppUsage{}
}
