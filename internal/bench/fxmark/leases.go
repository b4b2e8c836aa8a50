package fxmark

import (
	"errors"

	"arckfs/internal/fsapi"
)

// Releaser is implemented by file systems with an explicit voluntary
// ownership release (the ArckFS LibFS). Systems without one run MWRA as
// a plain reopen+overwrite, which keeps the cells comparable: the delta
// ArckFS pays is exactly its release/re-acquire crossings.
type Releaser interface {
	ReleaseInode(ino uint64) error
}

// Leases holds the control-plane workloads this reproduction adds to the
// FxMark set (they are not part of the original suite, so Table 2 and
// the paper's figures never see them).
//
//	MWRA  Release a private file, then reopen and overwrite it.
//
// MWRA is the grant-lease round trip: every iteration voluntarily
// returns the file to the kernel and immediately wants it back. With
// leases the release leaves the mapping dormant and the re-acquire is a
// CAS in userspace; without them (ArckFS as shipped) each iteration pays
// a release and an acquire crossing.
var Leases = []Workload{
	{
		Name: "MWRA",
		Desc: "Release a private file, then reopen and overwrite it",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			blob := make([]byte, 4096)
			for tid := 0; tid < threads; tid++ {
				if err := mkdirAll(t, privDir(tid)); err != nil {
					return err
				}
				p := privDir(tid) + "/lease"
				if err := t.Create(p); err != nil && !errors.Is(err, fsapi.ErrExist) {
					return err
				}
				fd, err := t.Open(p)
				if err != nil {
					return err
				}
				// Pre-size the file so the measured loop never allocates
				// pages: the steady state isolates the ownership churn.
				if _, err := t.WriteAt(fd, blob, 0); err != nil {
					return err
				}
				if err := t.Close(fd); err != nil {
					return err
				}
			}
			// Hand the whole fileset to the kernel once (parents before
			// children, satisfying Rule 1) so the measured loop releases
			// inodes the kernel already verified; without this the very
			// first release of a fresh file would be a Rule-1 violation.
			if ra, ok := fs.(interface{ ReleaseAll() error }); ok {
				if err := ra.ReleaseAll(); err != nil {
					return err
				}
			}
			return nil
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			p := privDir(tid) + "/lease"
			st, err := t.Stat(p)
			if err != nil {
				return nil, err
			}
			rel, _ := fs.(Releaser)
			blob := make([]byte, 4096)
			return func(i int) error {
				if rel != nil {
					if err := rel.ReleaseInode(st.Ino); err != nil {
						return err
					}
				}
				// Reopen rather than reusing the fd: the unpatched ArckFS
				// drops the released inode from its cache, and a stale
				// descriptor would fault on the revoked mapping instead of
				// re-acquiring.
				fd, err := t.Open(p)
				if err != nil {
					return err
				}
				if _, err := t.WriteAt(fd, blob, 0); err != nil {
					t.Close(fd)
					return err
				}
				return t.Close(fd)
			}, nil
		},
	},
}
