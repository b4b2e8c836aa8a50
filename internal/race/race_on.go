//go:build race

package race

// Enabled reports whether the race detector instruments this build.
const Enabled = true
