package crashmc

import (
	"fmt"

	"arckfs/internal/fsapi"
)

// OpKind enumerates the scripted workload operations.
type OpKind int

const (
	// OpCreate creates a file at Path.
	OpCreate OpKind = iota
	// OpMkdir creates a directory at Path.
	OpMkdir
	// OpWrite opens Path, writes Size patterned bytes at offset 0,
	// fsyncs, and closes.
	OpWrite
	// OpTruncate truncates Path to Size bytes.
	OpTruncate
	// OpUnlink unlinks the file at Path.
	OpUnlink
	// OpRmdir removes the empty directory at Path.
	OpRmdir
	// OpRename renames Path to Path2.
	OpRename
	// OpRelease returns every held inode to the kernel for verification
	// (FS.ReleaseAll) — the Trio durability point: only state a completed
	// release has verified may be asserted crash-durable.
	OpRelease
)

var opKindNames = [...]string{
	OpCreate:   "create",
	OpMkdir:    "mkdir",
	OpWrite:    "write",
	OpTruncate: "truncate",
	OpUnlink:   "unlink",
	OpRmdir:    "rmdir",
	OpRename:   "rename",
	OpRelease:  "release",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("opkind(%d)", int(k))
}

// Op is one scripted workload step.
type Op struct {
	Kind  OpKind `json:"kind"`
	Path  string `json:"path,omitempty"`
	Path2 string `json:"path2,omitempty"` // rename destination
	Size  int    `json:"size,omitempty"`  // write / truncate size

	// WantErr marks an op that must fail (e.g. the duplicate create that
	// plants a dead reserved slot). The rig aborts the run if the
	// outcome does not match, so op-schedule shrinking can never mistake
	// a changed error for a preserved counterexample.
	WantErr bool `json:"want_err,omitempty"`
}

func (o Op) String() string {
	s := o.Kind.String()
	if o.Path != "" {
		s += " " + o.Path
	}
	if o.Path2 != "" {
		s += " -> " + o.Path2
	}
	if o.Kind == OpWrite || o.Kind == OpTruncate {
		s += fmt.Sprintf(" (%dB)", o.Size)
	}
	if o.WantErr {
		s += " (must fail)"
	}
	return s
}

// apply runs the op against th. release implements OpRelease: the
// system-specific "return every held inode to the kernel for
// verification" step (a no-op for systems without release semantics,
// such as the baselines, which verify durability at fsync instead).
func (o Op) apply(th fsapi.Thread, release func() error) error {
	switch o.Kind {
	case OpCreate:
		return th.Create(o.Path)
	case OpMkdir:
		return th.Mkdir(o.Path)
	case OpWrite:
		fd, err := th.Open(o.Path)
		if err != nil {
			return err
		}
		defer th.Close(fd)
		buf := make([]byte, o.Size)
		for i := range buf {
			buf[i] = byte('a' + i%23)
		}
		if _, err := th.WriteAt(fd, buf, 0); err != nil {
			return err
		}
		return th.Fsync(fd)
	case OpTruncate:
		return th.Truncate(o.Path, uint64(o.Size))
	case OpUnlink:
		return th.Unlink(o.Path)
	case OpRmdir:
		return th.Rmdir(o.Path)
	case OpRename:
		return th.Rename(o.Path, o.Path2)
	case OpRelease:
		return release()
	}
	return fmt.Errorf("crashmc: unknown op kind %d", int(o.Kind))
}

// touched lists the paths whose durability the op may legitimately
// disturb while in flight; the model excludes them (and anything below
// them) from the verified-durable assertion during the op.
func (o Op) touched() []string {
	switch o.Kind {
	case OpRelease:
		return nil
	case OpRename:
		return []string{o.Path, o.Path2}
	default:
		if o.Path == "" {
			return nil
		}
		return []string{o.Path}
	}
}
