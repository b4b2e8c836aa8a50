// Command arckshell is an interactive shell onto a live ArckFS+ system —
// handy for exploring the architecture: every mutation runs in userspace,
// and `release` / `stats` make the kernel's verification work visible.
//
// Commands:
//
//	mkdir <path>              create a directory
//	create <path> [text]      create a file (optionally with contents)
//	write <path> <text>       overwrite a file's contents
//	cat <path>                print a file
//	ls <path>                 list a directory
//	stat <path>               show attributes
//	rm <path>                 unlink a file
//	rmdir <path>              remove an empty directory
//	mv <old> <new>            rename
//	trunc <path> <size>       truncate
//	release                   release everything to the kernel (verify)
//	fsck                      check the current image
//	crash                     simulate a power failure and remount
//	stats                     live telemetry snapshot (JSON, all counters)
//	shards                    per-shard kernel lock counters (contention)
//	trace [n] [filter...]     last n kernel crossings (default 16), from
//	                          the span rings; filters are kind-name
//	                          substrings (acquire, commit, grant,
//	                          release...) or app=<id>
//	spans [n]                 slowest recent operation spans (default 10)
//	                          with their causal event history
//	top                       per-app attribution: rank tenants by
//	                          crossings, persist traffic, and p99
//	tenants                   per-tenant quota/usage table: outstanding
//	                          page and inode grants against the limits
//	lint                      run the arcklint checkers over this source tree
//	                          (or just the configs whose name contains name)
//	help, quit
package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"arckfs"
	"arckfs/internal/analysis"
	"arckfs/internal/telemetry"
)

func main() {
	// SpanSampling 1: the shell is interactive, so every operation gets a
	// causal span — `spans` then explains any slow command just typed.
	sys, err := arckfs.New(arckfs.Options{DevSize: 128 << 20, CrashTracking: true, SpanSampling: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	app := sys.NewApp()
	w := app.NewThread(0)
	fmt.Println("arckshell — ArckFS+ on a 128 MiB simulated PM device. 'help' for commands.")

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("arckfs+ > ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		arg := func(i int) string {
			if i < len(args) {
				return args[i]
			}
			return ""
		}
		var err error
		switch cmd {
		case "help":
			fmt.Println("mkdir create write cat ls stat rm rmdir mv trunc release fsck crash stats shards trace spans top tenants lint quit")
		case "quit", "exit":
			return
		case "mkdir":
			err = w.Mkdir(arg(0))
		case "create":
			err = w.Create(arg(0))
			if err == nil && len(args) > 1 {
				err = writeAll(w, arg(0), strings.Join(args[1:], " "))
			}
		case "write":
			err = writeAll(w, arg(0), strings.Join(args[1:], " "))
		case "cat":
			var st arckfs.Stat
			st, err = w.Stat(arg(0))
			if err == nil {
				var fd arckfs.FD
				fd, err = w.Open(arg(0))
				if err == nil {
					buf := make([]byte, st.Size)
					_, err = w.ReadAt(fd, buf, 0)
					fmt.Printf("%s\n", buf)
					w.Close(fd)
				}
			}
		case "ls":
			path := arg(0)
			if path == "" {
				path = "/"
			}
			var names []string
			names, err = w.Readdir(path)
			for _, n := range names {
				fmt.Println(" ", n)
			}
		case "stat":
			var st arckfs.Stat
			st, err = w.Stat(arg(0))
			if err == nil {
				kind := "file"
				if st.Dir {
					kind = "dir"
				}
				fmt.Printf("  ino=%d type=%s size=%d nlink=%d\n", st.Ino, kind, st.Size, st.Nlink)
			}
		case "rm":
			err = w.Unlink(arg(0))
		case "rmdir":
			err = w.Rmdir(arg(0))
		case "mv":
			err = w.Rename(arg(0), arg(1))
		case "trunc":
			var n uint64
			n, err = strconv.ParseUint(arg(1), 10, 64)
			if err == nil {
				err = w.Truncate(arg(0), n)
			}
		case "release":
			err = app.ReleaseAll()
			if err == nil {
				st := sys.Stats()
				fmt.Printf("  verified; kernel has run %d verifications (%d failures, %d rollbacks)\n",
					st.Verifications, st.VerifyFailures, st.Rollbacks)
			}
		case "fsck":
			var rep *arckfs.Report
			rep, err = arckfs.Fsck(sys.Image())
			if err == nil {
				fmt.Println(" ", rep)
			}
		case "crash":
			if err = app.ReleaseAll(); err != nil {
				break
			}
			img := sys.CrashImage(arckfs.CrashDropAll)
			var rep *arckfs.Report
			sys, rep, err = arckfs.Recover(img, arckfs.Options{CrashTracking: true, SpanSampling: 1})
			if err != nil {
				break
			}
			// Re-enable tracking on the recovered system for further crashes.
			app = sys.NewApp()
			w = app.NewThread(0)
			fmt.Println("  power failed and remounted:", rep)
		case "stats":
			err = sys.Telemetry().WriteJSON(os.Stdout)
		case "shards":
			printShards(sys)
		case "lint":
			err = runLint()
		case "trace":
			printTrace(sys, args)
		case "spans":
			n := 10
			if v, convErr := strconv.Atoi(arg(0)); convErr == nil && v > 0 {
				n = v
			}
			printSpans(sys, n)
		case "top":
			printTop(sys)
		case "tenants":
			printTenants(sys)
		default:
			fmt.Println("  unknown command; try 'help'")
		}
		if err != nil {
			fmt.Println("  error:", err)
		}
	}
}

// printTrace renders the last n kernel crossings, read off the span
// rings: every crossing is a child of the operation that paid it, and the
// shell runs one operation at a time, so span order is time order. args
// is an optional count followed by filters: kind-name substrings (any may
// match) and/or one app=<id>.
func printTrace(sys *arckfs.System, args []string) {
	n := 16
	if len(args) > 0 {
		if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
			n, args = v, args[1:]
		}
	}
	appFilter := int64(-1)
	var kinds []string
	for _, f := range args {
		if after, ok := strings.CutPrefix(f, "app="); ok {
			if v, err := strconv.ParseInt(after, 10, 64); err == nil {
				appFilter = v
				continue
			}
		}
		kinds = append(kinds, strings.ToLower(f))
	}
	var out []string
	for _, sp := range sys.Spans() {
		if appFilter >= 0 && sp.App != appFilter {
			continue
		}
		for _, ev := range sp.Events {
			var kind, inodes string
			switch ev.Kind {
			case telemetry.SpanEvCrossing:
				kind = telemetry.EventKind(ev.A).String()
			case telemetry.SpanEvReleaseBatch, telemetry.SpanEvAcquireBatch:
				kind, inodes = telemetry.SpanEventName(ev.Kind), fmt.Sprintf(" %d inode(s)", ev.A)
			default:
				continue
			}
			if len(kinds) == 0 || slices.ContainsFunc(kinds, func(k string) bool { return strings.Contains(kind, k) }) {
				out = append(out, fmt.Sprintf("+%.3fms %-19s app=%d %-8s %.2fµs%s",
					float64(sp.StartNS+ev.TNS)/1e6, kind, sp.App, sp.Op, float64(ev.B)/1e3, inodes))
			}
		}
	}
	if len(out) == 0 {
		fmt.Println("  (no matching kernel crossings)")
	}
	for _, line := range out[max(0, len(out)-n):] {
		fmt.Println(" ", line)
	}
}

// printSpans renders the slowest retained operation spans with their
// causal event history — the "why was that slow" view.
func printSpans(sys *arckfs.System, n int) {
	spans := sys.SlowestSpans(n)
	if len(spans) == 0 {
		fmt.Println("  (no spans recorded yet)")
		return
	}
	for _, sp := range spans {
		suffix := ""
		if sp.Err != "" {
			suffix = " err=" + sp.Err
		}
		fmt.Printf("  #%-4d %-8s app=%d %9.2fµs %d event(s)%s\n",
			sp.ID, sp.Op, sp.App, float64(sp.DurNS)/1e3, len(sp.Events), suffix)
		for _, ev := range sp.Events {
			detail := fmt.Sprintf("a=%d b=%d", ev.A, ev.B)
			switch ev.Kind {
			case telemetry.SpanEvCrossing:
				detail = fmt.Sprintf("%s %.2fµs", telemetry.EventKind(ev.A), float64(ev.B)/1e3)
			case telemetry.SpanEvReleaseBatch, telemetry.SpanEvAcquireBatch:
				detail = fmt.Sprintf("1 crossing, %d inode(s) %.2fµs", ev.A, float64(ev.B)/1e3)
			}
			fmt.Printf("        +%8.2fµs %-13s %s\n",
				float64(ev.TNS)/1e3, telemetry.SpanEventName(ev.Kind), detail)
		}
	}
}

// printTop renders the per-app attribution table, busiest tenants (by
// kernel crossings, then operations) first.
func printTop(sys *arckfs.System) {
	stats := sys.AppStats()
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Syscalls != stats[j].Syscalls {
			return stats[i].Syscalls > stats[j].Syscalls
		}
		return stats[i].Ops > stats[j].Ops
	})
	fmt.Printf("  %4s %8s %9s %8s %7s %9s %10s %10s\n",
		"app", "ops", "syscalls", "flushes", "fences", "ntstores", "p50", "p99")
	for _, st := range stats {
		p50, p99 := "-", "-"
		if st.Latency != nil {
			p50 = fmt.Sprintf("%.1fµs", float64(st.Latency.P50NS)/1e3)
			p99 = fmt.Sprintf("%.1fµs", float64(st.Latency.P99NS)/1e3)
		}
		fmt.Printf("  %4d %8d %9d %8d %7d %9d %10s %10s\n",
			st.App, st.Ops, st.Syscalls, st.Flushes, st.Fences, st.NTStores, p50, p99)
	}
	if len(stats) == 0 {
		fmt.Println("  (no application activity yet)")
	}
}

// printTenants renders the per-tenant quota/usage table: outstanding
// grants against the installed limits ("-" = unlimited).
func printTenants(sys *arckfs.System) {
	usage := sys.Usage()
	lim := func(v int64) string {
		if v <= 0 {
			return "-"
		}
		return fmt.Sprintf("%d", v)
	}
	fmt.Printf("  %4s %10s %10s %10s %10s %10s %6s\n",
		"app", "pages out", "max pages", "inos out", "max inos", "cross/s", "weight")
	for _, u := range usage {
		fmt.Printf("  %4d %10d %10s %10d %10s %10s %6s\n",
			u.App, u.PagesOut, lim(u.Quota.MaxPages),
			u.InodesGranted, lim(u.Quota.MaxInodes),
			lim(u.Quota.CrossingsPerSec), lim(u.Quota.Weight))
	}
	if len(usage) == 0 {
		fmt.Println("  (no applications registered)")
	}
}

// printShards renders the kernel's per-shard lock counters, skipping
// shards never touched so the busy ones stand out.
func printShards(sys *arckfs.System) {
	fmt.Printf("  %-8s %5s %12s %10s\n", "kind", "idx", "acquisitions", "contended")
	var shown int
	for _, s := range sys.ShardStats() {
		if s.Acquisitions == 0 && s.Contended == 0 {
			continue
		}
		shown++
		fmt.Printf("  %-8s %5d %12d %10d\n", s.Kind, s.Index, s.Acquisitions, s.Contended)
	}
	if shown == 0 {
		fmt.Println("  (no kernel crossings yet)")
	}
}

// runLint runs the full arcklint suite in-process over the module this
// binary was started inside, mirroring `arcklint ./...`.
func runLint() error {
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, dirs, err := analysis.ExpandPatterns(cwd, []string{"./..."})
	if err != nil {
		return err
	}
	prog, err := analysis.LoadDirs(root, dirs)
	if err != nil {
		return err
	}
	findings := analysis.Run(prog, analysis.Analyzers())
	unsuppressed, suppressed := 0, 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
			continue
		}
		unsuppressed++
		fmt.Println(" ", f)
	}
	fmt.Printf("  %d finding(s), %d suppressed\n", unsuppressed, suppressed)
	return nil
}

func writeAll(w arckfs.Thread, path, text string) error {
	fd, err := w.Open(path)
	if err != nil {
		return err
	}
	defer w.Close(fd)
	if err := w.Truncate(path, 0); err != nil {
		return err
	}
	_, err = w.WriteAt(fd, []byte(text), 0)
	return err
}
