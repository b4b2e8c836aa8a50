package crashmc

import "testing"

// TestCrashStateEnumerationDeterministic pins the property the
// discipline-equivalence gate stands on: replaying the same schedule
// twice yields the same crash-state set and final image. The enumeration
// samples a truncated prefix of the dirty-line list at every fence, so
// any map-iteration order leaking into DirtyLines, verification results,
// or release order shows up here as a run-to-run diff long before it
// makes TestSerialDataCrashStatesMatchLockFree flake.
func TestCrashStateEnumerationDeterministic(t *testing.T) {
	for _, serial := range []bool{false, true} {
		a := dataPlaneCrashStates(t, serial, 0)
		b := dataPlaneCrashStates(t, serial, 1)
		if a.final != b.final {
			t.Errorf("serialData=%v: final images differ between identical runs", serial)
		}
		if len(a.states) != len(b.states) {
			t.Errorf("serialData=%v: crash-state count differs between identical runs: %d vs %d",
				serial, len(a.states), len(b.states))
		}
		for k := range a.states {
			if !b.states[k] {
				t.Errorf("serialData=%v: crash state admitted by run A is missing from run B", serial)
				break
			}
		}
	}
}
