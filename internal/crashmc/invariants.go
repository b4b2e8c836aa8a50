package crashmc

import (
	"fmt"

	"arckfs/internal/kernel"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
)

// The named recovery invariants every crash image must satisfy. The
// names appear in counterexamples, generated repros, and the campaign's
// Expect oracles.
const (
	// InvRecoverable (I1): kernel.Mount with repair must succeed on the
	// image.
	InvRecoverable = "I1-recoverable"
	// InvNoTornCommit (I2): recovery must find no committed dentry
	// record with a torn body — the §4.2 partial persist signature.
	InvNoTornCommit = "I2-no-torn-commit"
	// InvVerifiedDurable (I3): every kernel-verified path untouched
	// since the last completed release must still resolve after
	// recovery.
	InvVerifiedDurable = "I3-verified-durable"
	// InvRepairIdempotent (I4): a dry-run re-check after repair must be
	// clean — repair converges in one pass.
	InvRepairIdempotent = "I4-repair-idempotent"
)

// Violation is one failed invariant on one crash image.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// CheckImage runs the recovery path over a crash image and returns
// every invariant violation found. expectPresent lists the paths the
// image must preserve (the model's verified-durable set); nil runs the
// model-free subset (I1, I2, I4), which is what `arckfsck -deep` uses
// on images with no known history.
//
// The check is the library form of what cmd/arckfsck does: mount with
// repair, inspect the report, then re-check the repaired image.
func CheckImage(img []byte, expectPresent []string) []Violation {
	var vs []Violation
	rdev := pmem.Restore(img, nil)
	ctrl, rep, err := kernel.Mount(rdev, kernel.Options{}, true)
	if err != nil {
		return []Violation{{InvRecoverable, err.Error()}}
	}
	if rep.CorruptDentries > 0 {
		vs = append(vs, Violation{InvNoTornCommit,
			fmt.Sprintf("recovery found %d torn committed dentry record(s): %s", rep.CorruptDentries, rep)})
	}
	// I4 before I3: Fsck is a dry run, while the I3 path resolution
	// below attaches a LibFS and re-acquires inodes from the kernel.
	if rep2, err := kernel.Fsck(rdev, kernel.Options{}); err != nil {
		vs = append(vs, Violation{InvRepairIdempotent,
			fmt.Sprintf("re-check after repair failed: %v", err)})
	} else if !rep2.Clean() {
		vs = append(vs, Violation{InvRepairIdempotent,
			fmt.Sprintf("repair left damage behind: %s", rep2)})
	}
	if len(expectPresent) > 0 {
		fs := libfs.New(ctrl, ctrl.RegisterApp(0, 0), libfs.Options{})
		th := fs.NewThread(0)
		for _, p := range expectPresent {
			if _, err := th.Stat(p); err != nil {
				vs = append(vs, Violation{InvVerifiedDurable,
					fmt.Sprintf("kernel-verified path %s unresolvable after recovery: %v", p, err)})
			}
		}
	}
	return vs
}
