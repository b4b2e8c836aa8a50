package libfs

import (
	"errors"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/pmem"
)

// TestQuotaHostileTenant is what page and inode quotas are for. Two apps
// share one controller; A takes pages one grant at a time until the kernel
// refuses, then inode numbers the same way, and B then creates and writes
// a file. Unlimited, A drains the device and B's create fails with ENOSPC;
// under a quota A stops at ErrQuota on both paths and B's file works.
func TestQuotaHostileTenant(t *testing.T) {
	for _, tc := range []struct {
		name   string
		quota  kernel.Quota
		stop   error // what ends A's grant loops
		victim error // what B's create-and-write returns
	}{
		{"unlimited", kernel.Quota{}, fsapi.ErrNoSpace, fsapi.ErrNoSpace},
		{"quota", kernel.Quota{MaxPages: 256, MaxInodes: 64}, kernel.ErrQuota, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, err := kernel.Format(pmem.New(8<<20, nil), kernel.Options{InodeCap: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			a, b := ctrl.RegisterApp(0, 0), ctrl.RegisterApp(0, 0)
			if err := ctrl.SetQuota(a, tc.quota); err != nil {
				t.Fatal(err)
			}
			pages, err := hoard(func() error { _, err := ctrl.GrantPages(a, 0, 1); return err })
			if !errors.Is(err, tc.stop) {
				t.Fatalf("A's page grants ended after %d with %v, want %v", pages, err, tc.stop)
			}
			inos, err := hoard(func() error { _, err := ctrl.GrantInodes(a, 1); return err })
			if !errors.Is(err, tc.stop) {
				t.Fatalf("A's inode grants ended after %d with %v, want %v", inos, err, tc.stop)
			}

			w := th(t, New(ctrl, b, Options{}))
			err = w.Create("/victim")
			if err == nil {
				var fd fsapi.FD
				if fd, err = w.Open("/victim"); err == nil {
					_, err = w.WriteAt(fd, []byte("still here"), 0)
				}
			}
			if !errors.Is(err, tc.victim) {
				t.Fatalf("B's create and write after A took %d pages and %d inodes: %v, want %v",
					pages, inos, err, tc.victim)
			}
		})
	}
}

// hoard repeats grant until it fails, returning how many grants succeeded
// and the error that ended the run.
func hoard(grant func() error) (n int, err error) {
	for err = grant(); err == nil; err = grant() {
		n++
	}
	return n, err
}
