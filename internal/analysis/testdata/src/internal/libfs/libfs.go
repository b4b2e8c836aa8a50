// Package libfs mimics the bug-flag type whose Has tests the flow walker
// prunes to ArckFS+'s branch.
package libfs

type Bugs uint32

const (
	BugsNone        Bugs = 0
	BugMissingFence Bugs = 2
)

func (bs Bugs) Has(b Bugs) bool { return bs&b != 0 }
