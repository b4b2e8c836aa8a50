// Package badallow holds malformed suppression directives; the driver
// test asserts the arcklint meta-findings programmatically (a want
// comment cannot share these lines — its text would parse as the
// directive's reason).
package badallow

import "fixture/internal/hlock"

type FS struct{ pageMu [8]hlock.SpinLock }

// missingReason omits the mandatory justification.
func missingReason(fs *FS, a, b int) {
	fs.pageMu[a].Lock()
	//arcklint:allow lockorder
	fs.pageMu[b].Lock()
	fs.pageMu[b].Unlock()
	fs.pageMu[a].Unlock()
}

// unknownChecker names a checker that does not exist.
func unknownChecker(fs *FS, a, b int) {
	fs.pageMu[a].Lock()
	//arcklint:allow nosuchchecker the checker name is misspelled
	fs.pageMu[b].Lock()
	fs.pageMu[b].Unlock()
	fs.pageMu[a].Unlock()
}

// valid is well-formed and suppresses its finding.
func valid(fs *FS, a, b int) {
	fs.pageMu[a].Lock()
	//arcklint:allow lockorder the callers pass a < b, so no two threads wait on each other
	fs.pageMu[b].Lock()
	fs.pageMu[b].Unlock()
	fs.pageMu[a].Unlock()
}
