package kernel

import (
	"errors"
	"fmt"
	"sort"
)

// ErrQuota is returned (wrapped, with context) when a grant would push a
// tenant past one of its quota limits.
var ErrQuota = errors.New("kernel: quota exceeded")

// Quota bounds one tenant's consumption of the shared substrate. Zero
// values mean unlimited. Limits apply to *outstanding* grants — pages
// the app holds that no committed inode has adopted, and inode numbers
// granted but not yet bound to a committed creation — so a tenant that
// commits its work keeps operating under a small quota, while one that
// hoards grants hits the wall. Enforcement happens at grant time inside
// the kernel (GrantPages / GrantInodes), not in the untrusted LibFS.
type Quota struct {
	// MaxPages caps outstanding granted pages.
	MaxPages int64
	// MaxInodes caps outstanding granted inode numbers.
	MaxInodes int64
}

// SetQuota installs (or, with a zero Quota, clears) appID's quota.
// Limits may be raised or lowered while grants — including a parked
// lease reserve — are outstanding: lowering below current usage does not
// revoke anything, it only blocks further grants until usage drains
// below the new limit.
func (c *Controller) SetQuota(appID AppID, q Quota) error {
	c.syscall(appID)
	a := c.lookupApp(appID)
	if a == nil {
		return fmt.Errorf("kernel: unknown app %d", appID)
	}
	a.maxPages.Store(q.MaxPages)
	a.maxInodes.Store(q.MaxInodes)
	return nil
}

// QuotaOf returns appID's quota (introspection; no crossing charged).
func (c *Controller) QuotaOf(appID AppID) (Quota, bool) {
	a := c.lookupApp(appID)
	if a == nil {
		return Quota{}, false
	}
	return a.quota(), true
}

func (a *app) quota() Quota {
	return Quota{MaxPages: a.maxPages.Load(), MaxInodes: a.maxInodes.Load()}
}

// AppUsage is one tenant's live quota/usage snapshot (arckshell's
// `tenants` table and the tenancy registry render these).
type AppUsage struct {
	App           AppID
	PagesOut      int64 // outstanding granted pages
	InodesGranted int64 // outstanding granted inode numbers
	Quota         Quota
}

// Usage snapshots every registered app's outstanding grants and quota,
// sorted by app ID. Introspection only: no crossing is charged.
func (c *Controller) Usage() []AppUsage {
	c.appsMu.Lock()
	out := make([]AppUsage, 0, len(c.apps))
	for id, a := range c.apps {
		out = append(out, AppUsage{
			App:           id,
			PagesOut:      a.pagesOut.Load(),
			InodesGranted: int64(len(a.grantedInos)),
			Quota:         a.quota(),
		})
	}
	c.appsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// chargePages reserves n outstanding pages against the app's quota, or
// fails with ErrQuota. The CAS loop keeps concurrent grants by the same
// app from racing past the limit.
func (a *app) chargePages(n int) error {
	for {
		cur := a.pagesOut.Load()
		if max := a.maxPages.Load(); max > 0 && cur+int64(n) > max {
			return fmt.Errorf("app %d: %d pages outstanding, +%d exceeds quota %d: %w",
				a.id, cur, n, max, ErrQuota)
		}
		if a.pagesOut.CompareAndSwap(cur, cur+int64(n)) {
			return nil
		}
	}
}
