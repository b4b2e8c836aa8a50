// Crashsim demonstrates the paper's §4.2 bug end to end: a missing
// memory fence lets a directory entry's commit marker persist before the
// entry's body, so a crash leaves a committed-but-garbage dentry. The
// same crash against ArckFS+ (one added fence) is always consistent.
//
// This is the in-process equivalent of the paper's experiment: "we insert
// a flush of the cache line containing the commit marker, followed by a
// sleep immediately after updating the commit marker", then cut power.
// It exits non-zero unless ArckFS recovers a torn dentry and ArckFS+
// recovers none, so CI runs it as a check.
package main

import (
	"fmt"
	"log"
	"strings"

	"arckfs/internal/core"
	"arckfs/internal/kernel"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
)

func crashDuringCreate(mode core.Mode) *kernel.Report {
	sys, err := core.NewSystem(core.Config{Mode: mode, DevSize: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}
	app := sys.NewApp(0, 0)
	w := app.NewThread(0).(*libfs.Thread)

	// A committed baseline so the crash hits a realistic image.
	if err := w.Create("/already-durable"); err != nil {
		log.Fatal(err)
	}
	if err := app.ReleaseAll(); err != nil {
		log.Fatal(err)
	}
	sys.Dev.EnableTracking()

	// Crash at the §4.2 window: the commit marker's flush has been
	// issued, the final fence has not. The adversarial policy persists
	// exactly the lines written twice (the marker's line) and drops the
	// single-write body lines — the write-back order the missing fence
	// permits.
	var img []byte
	sys.Dev.SetObserver(func(site string) {
		if site == "libfs.create.marker" && img == nil {
			img = sys.Dev.CrashImage(func(_ int64, versions int) int {
				if versions >= 2 {
					return versions
				}
				return 0
			})
		}
	})
	name := "/victim-" + strings.Repeat("x", 120)
	if err := w.Create(name); err != nil {
		log.Fatal(err)
	}

	dev := pmem.Restore(img, nil)
	_, rep, err := kernel.Mount(dev, kernel.Options{}, true)
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func main() {
	fmt.Println("Crashing ArckFS (missing fence, §4.2) during create:")
	rep := crashDuringCreate(core.ArckFS)
	fmt.Printf("  recovery: %s\n", rep)
	if rep.CorruptDentries == 0 {
		log.Fatal("ArckFS recovered no torn dentry: the §4.2 bug did not reproduce")
	}
	fmt.Println("  -> a directory entry with a valid commit marker was only")
	fmt.Println("     partially persisted (torn name detected by its hash)")

	fmt.Println("Crashing ArckFS+ (fence added) at the same instant:")
	rep = crashDuringCreate(core.ArckFSPlus)
	fmt.Printf("  recovery: %s\n", rep)
	if rep.CorruptDentries != 0 {
		log.Fatal("ArckFS+ recovered a torn dentry: the fence did not hold")
	}
	fmt.Println("  -> the fence orders body write-backs before the marker:")
	fmt.Println("     the entry is either fully present or absent, never torn")
}
