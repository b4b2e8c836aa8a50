// Package counterreg exercises the telemetry-registry rules: literal
// names, once-only registration, and no drifted lookup keys.
package counterreg

import (
	"fixture/internal/pmem"
	"fixture/internal/telemetry"
)

func zero() int64 { return 0 }

// register is the canonical site for both names below.
func register(s *telemetry.Set) {
	s.Gauge("libfs.ops", zero)
	s.Gauge("pmem.stores", zero)
}

// registerAgain re-registers a name the canonical site already owns.
func registerAgain(s *telemetry.Set) {
	s.Gauge("libfs.ops", zero) // want "already registered"
}

// dynamic registers through a variable, defeating static checking.
func dynamic(s *telemetry.Set, name string) {
	s.Gauge(name, zero) // want "non-constant name"
}

// lookupKeys mimics bench tooling reading counters back by name. The
// last key drifted from the registered "pmem.stores".
func lookupKeys() []string {
	return []string{
		"pmem.stores",
		"libfs.ops",
		"pmem.storez", // want "no counter with that name is registered"
	}
}

// commit marks a whitebox killpoint site: its dotted name is not a
// counter, so neither the site nor an observer's match on it is drift.
func commit(d *pmem.Device) {
	d.Killpoint("libfs.commit.marker")
}

// observer matches on the site beside a drifted lookup key.
func observer(site string) int64 {
	switch site {
	case "libfs.commit.marker":
		return 1
	case "libfs.opz": // want "no counter with that name is registered"
		return 2
	}
	return 0
}
