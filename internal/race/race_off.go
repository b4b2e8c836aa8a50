//go:build !race

// Package race tells tests whether the race detector instruments the
// build. The allocation pins skip under -race: the race runtime may
// allocate on behalf of the measured code, which would fail a zero-alloc
// bound for reasons unrelated to the code under test.
package race

// Enabled reports whether the race detector instruments this build.
const Enabled = false
