// Command arckfsck checks (and optionally repairs) an ArckFS device
// image: it trusts the kernel's shadow inode table and reconciles every
// committed inode's core state against it, reporting torn §4.2 dentries,
// dangling entries from uncommitted creations, restorable inode records,
// and orphans.
//
// Usage:
//
//	arckfsck [-repair] [-deep] image.pm
//	arckfsck -demo
//
// With -demo, the tool builds a small file system in memory, injects the
// paper's §4.2 partial persist crash, and shows the report.
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
	demo := flag.Bool("demo", false, "run a built-in crash-injection demonstration")
	deep := flag.Bool("deep", false, "also check the crashmc recovery invariants (I1, I2, I4)")
	flag.Parse()

	if *demo {
		runDemo()
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: arckfsck [-repair] [-deep] image.pm | arckfsck -demo")
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

func runDemo() {
	fmt.Println("Building a file system, then simulating a §4.2 crash during create...")
	sys, err := arckfs.New(arckfs.Options{DevSize: 64 << 20, CrashTracking: true, Mode: arckfs.ModeArckFS})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	app := sys.NewApp()
	w := app.NewThread(0)
	if err := w.Mkdir("/docs"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := w.Create("/docs/survivor"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := app.ReleaseAll(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// An in-flight create whose ordering is unprotected (ModeArckFS), cut
	// by a random-subset crash.
	if err := w.Create("/docs/in-flight-with-a-rather-long-name-spanning-cache-lines"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	img := sys.CrashImage(arckfs.CrashRandom(2))
	rep, err := arckfs.Fsck(img)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("fsck report:", rep)
	sys2, rep2, err := arckfs.Recover(img, arckfs.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("after repair:", rep2)
	w2 := sys2.NewApp().NewThread(0)
	names, err := w2.Readdir("/docs")
	fmt.Printf("surviving /docs entries: %v (err=%v)\n", names, err)
}
