package fxmark

import (
	"errors"
	"fmt"
	"math/rand"

	"arckfs/internal/fsapi"
)

// Lookup holds the data-plane read-path workloads this reproduction adds
// to the FxMark set (like Leases, they are not part of the original
// suite, so Table 2 and the paper's figures never see them).
//
//	MRSL  Open, stat, and read a random file of a shared directory.
//
// MRSL is the read-mostly cell the original suite lacks: DRBL reads a
// private file through a long-lived descriptor (no lookups), while the
// MR* metadata workloads never touch file data. MRSL does both against
// one shared directory, so every iteration walks the same bucket chains
// and block indexes from every thread concurrently; on the lock-free
// data plane the whole loop takes no lock.
var Lookup = []Workload{
	{
		Name: "MRSL",
		Desc: "Open, stat, and read a 4K block of a shared-dir file",
		Data: true,
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			if err := mkdirAll(t, "/shared-lookup"); err != nil {
				return err
			}
			blob := make([]byte, 4096)
			for i := 0; i < cfg.DirFiles; i++ {
				p := fmt.Sprintf("/shared-lookup/f%d", i)
				if err := t.Create(p); errors.Is(err, fsapi.ErrExist) {
					continue
				} else if err != nil {
					return err
				}
				fd, err := t.Open(p)
				if err != nil {
					return err
				}
				if _, err := t.WriteAt(fd, blob, 0); err != nil {
					return err
				}
				if err := t.Close(fd); err != nil {
					return err
				}
			}
			return nil
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			rng := rand.New(rand.NewSource(int64(tid)*104729 + 3))
			buf := make([]byte, 4096)
			nfiles := cfg.DirFiles
			return func(i int) error {
				p := fmt.Sprintf("/shared-lookup/f%d", rng.Intn(nfiles))
				if _, err := t.Stat(p); err != nil {
					return err
				}
				fd, err := t.Open(p)
				if err != nil {
					return err
				}
				if _, err := t.ReadAt(fd, buf, 0); err != nil {
					t.Close(fd)
					return err
				}
				return t.Close(fd)
			}, nil
		},
	},
}
