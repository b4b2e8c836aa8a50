// Package fsapi defines the file-system-agnostic surface shared by ArckFS
// and the baseline file systems, so workloads, benchmarks, and the oracle
// tests drive every implementation identically.
package fsapi

import (
	"errors"
	"strings"
)

// Error codes, deliberately close to the POSIX errnos the paper's
// artifact would return.
var (
	ErrNotExist    = errors.New("no such file or directory")
	ErrExist       = errors.New("file exists")
	ErrNotDir      = errors.New("not a directory")
	ErrIsDir       = errors.New("is a directory")
	ErrNotEmpty    = errors.New("directory not empty")
	ErrPerm        = errors.New("permission denied")
	ErrNoSpace     = errors.New("no space left on device")
	ErrInval       = errors.New("invalid argument")
	ErrBusy        = errors.New("resource busy")
	ErrBadFd       = errors.New("bad file descriptor")
	ErrNameTooLong = errors.New("file name too long")
	// ErrStale is returned when an operation touches an inode whose
	// mapping the kernel has revoked (the moral equivalent of SIGBUS on a
	// torn-down PM mapping).
	ErrStale = errors.New("stale inode mapping")
	// ErrBusError is the simulated process crash of §4.3: a thread
	// dereferenced core state that another thread unmapped underneath it.
	ErrBusError = errors.New("bus error: dereference of unmapped core state (simulated crash)")
	// ErrSegfault is the simulated process crash of §4.4/§4.5: a thread
	// followed auxiliary state into freed or non-existent memory.
	ErrSegfault = errors.New("segmentation fault (simulated crash)")
	// ErrVerification is returned when the integrity verifier rejects a
	// released inode and the kernel applied its corruption policy.
	ErrVerification = errors.New("integrity verification failed")
	// ErrLoop is returned when path resolution exceeds the depth bound
	// (a directory cycle, §4.6).
	ErrLoop = errors.New("too many levels of directories (possible cycle)")
)

// Stat describes an inode.
type Stat struct {
	Ino   uint64
	Dir   bool
	Size  uint64
	Nlink uint16
	MTime uint64
}

// FD is a per-thread open-file descriptor.
type FD int

// Thread is a per-worker handle onto a file system. Implementations may
// carry per-thread auxiliary state (CPU id for log-tail selection, RCU
// reader registration, scratch buffers); a Thread must not be used from
// two goroutines at once, but distinct Threads of one FS may run fully in
// parallel.
type Thread interface {
	Create(path string) error
	Mkdir(path string) error
	Open(path string) (FD, error)
	Close(fd FD) error
	ReadAt(fd FD, p []byte, off int64) (int, error)
	WriteAt(fd FD, p []byte, off int64) (int, error)
	Fsync(fd FD) error
	Unlink(path string) error
	Rmdir(path string) error
	Rename(oldPath, newPath string) error
	Stat(path string) (Stat, error)
	Readdir(path string) ([]string, error)
	Truncate(path string, size uint64) error
}

// FS is a mounted file system instance.
type FS interface {
	// Name identifies the implementation in benchmark output.
	Name() string
	// NewThread creates a worker handle pinned to a virtual CPU.
	NewThread(cpu int) Thread
}

// SplitPath splits an absolute path into its directory part and final
// component. The root itself splits into ("/", "").
func SplitPath(path string) (dir, name string) {
	path = Clean(path)
	if path == "/" {
		return "/", ""
	}
	i := strings.LastIndexByte(path, '/')
	dir = path[:i]
	if dir == "" {
		dir = "/"
	}
	return dir, path[i+1:]
}

// Clean normalizes an absolute path: collapses repeated slashes and
// removes a trailing slash. It does not interpret "." or "..". It reads the
// path once, and returns a path that is already clean as it is.
func Clean(path string) string {
	var buf []byte // nil until the first byte that has to change
	if path == "" || path[0] != '/' {
		buf = append(make([]byte, 0, len(path)+1), '/')
	}
	for i := 0; i < len(path); i++ {
		// A slash before another slash, or at the end, separates nothing.
		if path[i] == '/' && (i+1 == len(path) || path[i+1] == '/') {
			if buf == nil {
				buf = append(make([]byte, 0, len(path)), path[:i]...)
			}
			continue
		}
		if buf != nil {
			buf = append(buf, path[i])
		}
	}
	switch {
	case buf == nil:
		return path
	case len(buf) == 0:
		return "/"
	}
	return string(buf)
}

// PathCursor yields the elements of a path one at a time, as substrings of
// the path: walking a path allocates nothing. Repeated, leading and
// trailing slashes separate nothing, so the elements are those of the
// cleaned path and the root has none.
//
//	for c := fsapi.Walk(path); c.Next(); {
//		name := c.Name()
//	}
type PathCursor struct {
	name, rest string
}

// Walk returns a cursor before path's first element.
func Walk(path string) PathCursor { return PathCursor{rest: path} }

// Next moves to the next element and reports whether there is one.
func (c *PathCursor) Next() bool {
	s := c.rest
	for len(s) > 0 && s[0] == '/' {
		s = s[1:]
	}
	i := strings.IndexByte(s, '/')
	if i < 0 {
		i = len(s)
	}
	c.name, c.rest = s[:i], s[i:]
	return i > 0
}

// Name returns the element the last call of Next moved to.
func (c *PathCursor) Name() string { return c.name }
