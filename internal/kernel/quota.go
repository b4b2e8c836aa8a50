package kernel

import (
	"errors"
	"fmt"
	"sort"
	"time"
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
	// CrossingsPerSec rate-limits the tenant's kernel crossings with a
	// GCRA token bucket (burst tolerance ~1/8 s of crossings).
	CrossingsPerSec int64
	// Weight is the tenant's fair-share weight in the crossing admission
	// scheduler (0 = 1): under contention a weight-4 tenant is admitted
	// 4x as often as a weight-1 tenant.
	Weight int64
}

// SetQuota installs (or, with a zero Quota, clears) appID's quota.
// Limits may be raised or lowered while grants — including a parked
// lease reserve — are outstanding: lowering below current usage does not
// revoke anything, it only blocks further grants until usage drains
// below the new limit.
func (c *Controller) SetQuota(appID AppID, q Quota) error {
	defer c.syscall(appID)()
	a := c.lookupApp(appID)
	if a == nil {
		return fmt.Errorf("kernel: unknown app %d", appID)
	}
	a.maxPages.Store(q.MaxPages)
	a.maxInodes.Store(q.MaxInodes)
	a.weight.Store(q.Weight)
	old := a.crossRate.Swap(q.CrossingsPerSec)
	if q.CrossingsPerSec > 0 {
		c.quotaRates.Store(appID, a)
		if old <= 0 {
			c.rateActive.Add(1)
		}
	} else if old > 0 {
		c.quotaRates.Delete(appID)
		c.rateActive.Add(-1)
	}
	if c.adm != nil {
		c.adm.setWeight(appID, q.Weight)
	}
	return nil
}

// QuotaOf returns appID's quota (introspection; no crossing charged).
func (c *Controller) QuotaOf(appID AppID) (Quota, bool) {
	a := c.lookupApp(appID)
	if a == nil {
		return Quota{}, false
	}
	return Quota{
		MaxPages:        a.maxPages.Load(),
		MaxInodes:       a.maxInodes.Load(),
		CrossingsPerSec: a.crossRate.Load(),
		Weight:          a.weight.Load(),
	}, true
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
			Quota: Quota{
				MaxPages:        a.maxPages.Load(),
				MaxInodes:       a.maxInodes.Load(),
				CrossingsPerSec: a.crossRate.Load(),
				Weight:          a.weight.Load(),
			},
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

// throttleCrossing applies the app's crossings/sec quota: a GCRA token
// bucket over the controller clock with ~1/8 s of burst tolerance.
// Non-conforming crossings block (with a real-time backoff, so a modeled
// clock that tracks real time converges without spinning a core) until
// the bucket drains. Called before admission so a rate-limited tenant
// never parks itself on an admission slot.
func (c *Controller) throttleCrossing(a *app) {
	rate := a.crossRate.Load()
	if rate <= 0 {
		return
	}
	interval := int64(time.Second) / rate
	if interval <= 0 {
		interval = 1
	}
	burst := rate / 8
	if burst < 1 {
		burst = 1
	}
	tau := burst * interval
	throttled := false
	for {
		now := c.now().UnixNano()
		tat := a.rateTAT.Load()
		base := tat
		if base < now {
			base = now
		}
		if base-now > tau {
			// Over rate: the theoretical arrival time has run ahead of
			// the burst tolerance. Wait for real time to catch up.
			if !throttled {
				throttled = true
				c.throttled.Add(1)
			}
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if a.rateTAT.CompareAndSwap(tat, base+interval) {
			return
		}
	}
}
