// Package filebench reimplements the Webproxy and Varmail personalities
// of Filebench as the ArckFS+ paper evaluates them.
//
// The Trio artifact sidesteps Filebench's fileset-lock bottleneck by
// giving every thread a private directory, changing the workload's
// semantics. This package implements both that variant and the paper's
// new framework (§5.3): a genuinely shared directory whose file selection
// is coordinated by fine-grained per-filename locks instead of one
// fileset lock.
package filebench

import (
	"errors"
	"fmt"
	"math/rand"

	"arckfs/internal/fsapi"
	"arckfs/internal/harness"
	"arckfs/internal/hlock"
)

// Personality selects the workload mix.
type Personality int

const (
	// Webproxy: per iteration, delete+recreate one file with a ~16 KiB
	// body, then open/read/close five random files, then append to a
	// log.
	Webproxy Personality = iota
	// Varmail: per iteration, delete one file, create+append+fsync one,
	// open+read+append+fsync one, open+read+close one — the mail-server
	// mix.
	Varmail
)

func (p Personality) String() string {
	if p == Varmail {
		return "varmail"
	}
	return "webproxy"
}

// Config sizes the run.
type Config struct {
	Personality Personality
	// Files is the fileset size (shared across all threads in shared
	// mode, per thread in private mode).
	Files int
	// MeanFileSize is the file body size.
	MeanFileSize int
	// SharedDir selects the paper's shared-directory framework; false
	// reproduces the Trio artifact's private-directory variant.
	SharedDir bool
}

// Defaults approximates the paper's configuration at laptop scale.
func Defaults(p Personality) Config {
	return Config{Personality: p, Files: 256, MeanFileSize: 16 << 10, SharedDir: true}
}

// fileset is the shared-directory framework: filenames plus one spinlock
// per filename slot, the fine-grained coordination that replaces
// Filebench's whole-fileset lock.
type fileset struct {
	dir   string
	names []string
	locks []hlock.SpinLock
}

func newFileset(dir string, n int) *fileset {
	fsr := &fileset{dir: dir, names: make([]string, n), locks: make([]hlock.SpinLock, n)}
	for i := range fsr.names {
		fsr.names[i] = fmt.Sprintf("%s/vf%05d", dir, i)
	}
	return fsr
}

// withFile locks one filename slot for the duration of fn.
func (s *fileset) withFile(idx int, fn func(path string) error) error {
	s.locks[idx].Lock()
	defer s.locks[idx].Unlock()
	return fn(s.names[idx])
}

// Run executes the personality and returns the aggregate result.
func Run(fs fsapi.FS, cfg Config, threads, opsPerThread int) (harness.Result, error) {
	setup := fs.NewThread(0)
	body := make([]byte, cfg.MeanFileSize)
	for i := range body {
		body[i] = byte(i)
	}

	var sets []*fileset
	mkset := func(dir string) (*fileset, error) {
		if err := setup.Mkdir(dir); err != nil && !errors.Is(err, fsapi.ErrExist) {
			return nil, err
		}
		set := newFileset(dir, cfg.Files)
		for _, name := range set.names {
			if err := setup.Create(name); err != nil && !errors.Is(err, fsapi.ErrExist) {
				return nil, err
			}
			fd, err := setup.Open(name)
			if err != nil {
				return nil, err
			}
			if _, err := setup.WriteAt(fd, body, 0); err != nil {
				return nil, err
			}
			setup.Close(fd)
		}
		return set, nil
	}
	if cfg.SharedDir {
		set, err := mkset("/fileset")
		if err != nil {
			return harness.Result{}, err
		}
		for tid := 0; tid < threads; tid++ {
			sets = append(sets, set)
		}
	} else {
		for tid := 0; tid < threads; tid++ {
			set, err := mkset(fmt.Sprintf("/fileset%d", tid))
			if err != nil {
				return harness.Result{}, err
			}
			sets = append(sets, set)
		}
	}
	if err := setup.Mkdir("/logs"); err != nil && !errors.Is(err, fsapi.ErrExist) {
		return harness.Result{}, err
	}

	workers := make([]func(i int) error, threads)
	for tid := 0; tid < threads; tid++ {
		t := fs.NewThread(tid)
		set := sets[tid]
		rng := rand.New(rand.NewSource(int64(tid)*101 + 3))
		logPath := fmt.Sprintf("/logs/log%d", tid)
		if err := t.Create(logPath); err != nil && !errors.Is(err, fsapi.ErrExist) {
			return harness.Result{}, err
		}
		logFD, err := t.Open(logPath)
		if err != nil {
			return harness.Result{}, err
		}
		var logOff int64
		readBuf := make([]byte, cfg.MeanFileSize)
		switch cfg.Personality {
		case Webproxy:
			workers[tid] = func(i int) error {
				// delete + recreate + write whole file
				idx := rng.Intn(len(set.names))
				err := set.withFile(idx, func(p string) error {
					if err := t.Unlink(p); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
						return err
					}
					if err := t.Create(p); err != nil {
						return err
					}
					fd, err := t.Open(p)
					if err != nil {
						return err
					}
					defer t.Close(fd)
					_, err = t.WriteAt(fd, body, 0)
					return err
				})
				if err != nil {
					return err
				}
				// five open/read/close of random files
				for k := 0; k < 5; k++ {
					idx := rng.Intn(len(set.names))
					err := set.withFile(idx, func(p string) error {
						fd, err := t.Open(p)
						if err != nil {
							return err
						}
						defer t.Close(fd)
						_, err = t.ReadAt(fd, readBuf, 0)
						return err
					})
					if err != nil {
						return err
					}
				}
				// append to the proxy log
				if logOff > 64<<20 {
					if err := t.Truncate(logPath, 0); err != nil {
						return err
					}
					logOff = 0
				}
				if _, err := t.WriteAt(logFD, body[:512], logOff); err != nil {
					return err
				}
				logOff += 512
				return nil
			}
		case Varmail:
			workers[tid] = func(i int) error {
				// delete a mail file
				idx := rng.Intn(len(set.names))
				if err := set.withFile(idx, func(p string) error {
					if err := t.Unlink(p); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
						return err
					}
					return nil
				}); err != nil {
					return err
				}
				// create + append + fsync (mail arrival)
				if err := set.withFile(idx, func(p string) error {
					if err := t.Create(p); err != nil && !errors.Is(err, fsapi.ErrExist) {
						return err
					}
					fd, err := t.Open(p)
					if err != nil {
						return err
					}
					defer t.Close(fd)
					if _, err := t.WriteAt(fd, body[:cfg.MeanFileSize/2], 0); err != nil {
						return err
					}
					return t.Fsync(fd)
				}); err != nil {
					return err
				}
				// open + read + append + fsync (mail update)
				idx2 := rng.Intn(len(set.names))
				if err := set.withFile(idx2, func(p string) error {
					fd, err := t.Open(p)
					if err != nil {
						if errors.Is(err, fsapi.ErrNotExist) {
							return nil // deleted by a peer; Filebench skips
						}
						return err
					}
					defer t.Close(fd)
					n, err := t.ReadAt(fd, readBuf, 0)
					if err != nil {
						return err
					}
					if _, err := t.WriteAt(fd, body[:512], int64(n)); err != nil {
						return err
					}
					return t.Fsync(fd)
				}); err != nil {
					return err
				}
				// open + read whole + close
				idx3 := rng.Intn(len(set.names))
				return set.withFile(idx3, func(p string) error {
					fd, err := t.Open(p)
					if err != nil {
						if errors.Is(err, fsapi.ErrNotExist) {
							return nil
						}
						return err
					}
					defer t.Close(fd)
					_, err = t.ReadAt(fd, readBuf, 0)
					return err
				})
			}
		}
	}
	name := cfg.Personality.String()
	if !cfg.SharedDir {
		name += "-privdirs"
	}
	res := harness.RunCounted(harness.SourceOf(fs), fs.Name(), name, threads, opsPerThread, func(tid, i int) error {
		return workers[tid](i)
	})
	return res, res.Err
}
