// Command arckfsck checks (and optionally repairs) an ArckFS device
// image: it trusts the kernel's shadow inode table and reconciles every
// committed inode's core state against it, reporting torn §4.2 dentries,
// dangling entries from uncommitted creations, restorable inode records,
// and orphans.
//
// Usage:
//
//	arckfsck [-repair] [-deep] image.pm
//
// With -deep, the image is additionally run through the crashmc
// recovery invariants (internal/crashmc.CheckImage in model-free form):
// recovery must succeed, find no torn committed records, and converge
// in one repair pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"arckfs"
	"arckfs/internal/crashmc"
)

func main() {
	repair := flag.Bool("repair", false, "repair the image in place (writes the file back)")
	deep := flag.Bool("deep", false, "also check the crashmc recovery invariants (I1, I2, I4)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: arckfsck [-repair] [-deep] image.pm")
		os.Exit(2)
	}
	path := flag.Arg(0)
	img, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *deep {
		// CheckImage restores and repairs a scratch device, so -deep
		// composes with both the dry-run and -repair paths below.
		if vs := crashmc.CheckImage(img, nil); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintln(os.Stderr, "deep check:", v)
			}
			writeFlight(path, img, "arckfsck-deep", vs[0].String())
			os.Exit(1)
		}
		fmt.Println("deep check: recovery invariants hold")
	}
	if *repair {
		sys, rep, err := arckfs.Recover(img, arckfs.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("repaired:", rep)
		if err := os.WriteFile(path, sys.Image(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	rep, err := arckfs.Fsck(img)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(rep)
	if !rep.Clean() {
		writeFlight(path, img, "arckfsck", rep.String())
		os.Exit(1)
	}
}

// writeFlight dumps a flight record for a flagged image into the shared
// artifact directory ($ARCK_FLIGHT_DIR, default artifacts/) as
// <image-base>.flight.json: the image is re-mounted with every-operation
// span tracing, so the record carries the timed recovery passes of the
// repair attempt alongside the reason the image was flagged.
func writeFlight(imgPath string, img []byte, reason, detail string) {
	sys, _, err := arckfs.Recover(img, arckfs.Options{SpanSampling: 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "flight record: recovery replay failed: %v\n", err)
		return
	}
	fr := sys.Tracer().Flight(reason, detail)
	out, err := fr.WriteFile("", filepath.Base(imgPath)+".flight")
	if err != nil {
		fmt.Fprintln(os.Stderr, "flight record:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "flight record: %s (%d spans)\n", out, len(fr.Spans))
}
