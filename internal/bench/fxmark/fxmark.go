// Package fxmark reimplements the FxMark microbenchmark suite (Min et
// al., ATC 2016) in the variant the Trio artifact ships and the ArckFS+
// paper uses: worker "processes" are threads inside one library file
// system (introducing intra-process synchronization), the MWCM workload
// omits the post-create write, and DWTL uses a reduced file size.
//
// Table 3 of the paper defines the metadata workloads:
//
//	DWTL        Reduce the size of a private file by 4K.
//	MRP(L/M/H)  Open a (private/random/same) file in five-depth dirs.
//	MRD(L/M)    Enumerate files of a (private/shared) directory.
//	MWC(L/M)    Create an empty file in a (private/shared) dir.
//	MWU(L/M)    Unlink an empty file in a (private/shared) dir.
//	MWRL        Rename a private file in a private dir.
//	MWRM        Move a private file to a shared dir.
//
// Data-operation workloads (DRBL/DRBM/DWOL/DWAL) cover §5.1/§5.2's data
// points.
package fxmark

import (
	"errors"
	"fmt"
	"math/rand"

	"arckfs/internal/fsapi"
)

// Config sizes the workloads.
type Config struct {
	// DWTLFileSize is the initial private-file size DWTL shrinks
	// (the paper uses 256 MB; the default here is smaller so the
	// simulated device fits in RAM — the shape is unaffected).
	DWTLFileSize uint64
	// DirFiles is the number of files per enumerated directory (MRDL/M).
	DirFiles int
	// DataFileSize is the size of data-op files.
	DataFileSize uint64
}

// Defaults returns laptop-scale sizes.
func Defaults() Config {
	return Config{
		DWTLFileSize: 4 << 20,
		DirFiles:     64,
		DataFileSize: 1 << 20,
	}
}

// Workload is one FxMark microbenchmark.
type Workload struct {
	Name string
	Desc string
	// Data marks data-operation workloads (bytes throughput matters).
	Data bool
	// Setup prepares the fileset for the given worker count.
	Setup func(fs fsapi.FS, threads int, cfg Config) error
	// Worker returns the per-thread operation closure. The closure is
	// invoked with an increasing iteration counter.
	Worker func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error)
}

func privDir(tid int) string { return fmt.Sprintf("/priv%d", tid) }

// deepDir builds the five-depth directory path of MRP*.
func deepDir(tid int) string {
	return fmt.Sprintf("/d0-%d/d1/d2/d3/d4", tid)
}

func mkdirAll(t fsapi.Thread, path string) error {
	cur := ""
	for c := fsapi.Walk(path); c.Next(); {
		cur += "/" + c.Name()
		if err := t.Mkdir(cur); err != nil && !errors.Is(err, fsapi.ErrExist) {
			return err
		}
	}
	return nil
}

// setupDeepDirs builds one five-depth private directory with one file
// per worker (the MRPL/MRPM fileset).
func setupDeepDirs(fs fsapi.FS, threads int, cfg Config) error {
	t := fs.NewThread(0)
	for tid := 0; tid < threads; tid++ {
		if err := mkdirAll(t, deepDir(tid)); err != nil {
			return err
		}
		if err := t.Create(deepDir(tid) + "/file"); err != nil && !errors.Is(err, fsapi.ErrExist) {
			return err
		}
	}
	return nil
}

// Metadata lists the twelve Table-3 workloads in the paper's order.
var Metadata = []Workload{
	{
		Name: "DWTL",
		Desc: "Reduce the size of a private file by 4K",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			blob := make([]byte, 1<<20)
			for tid := 0; tid < threads; tid++ {
				if err := mkdirAll(t, privDir(tid)); err != nil {
					return err
				}
				p := privDir(tid) + "/trunc"
				if err := t.Create(p); err != nil {
					return err
				}
				fd, err := t.Open(p)
				if err != nil {
					return err
				}
				for off := uint64(0); off < cfg.DWTLFileSize; off += uint64(len(blob)) {
					n := uint64(len(blob))
					if off+n > cfg.DWTLFileSize {
						n = cfg.DWTLFileSize - off
					}
					if _, err := t.WriteAt(fd, blob[:n], int64(off)); err != nil {
						return err
					}
				}
				t.Close(fd)
			}
			return nil
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			p := privDir(tid) + "/trunc"
			size := cfg.DWTLFileSize
			return func(i int) error {
				if size < 4096 {
					// Re-extend and keep truncating; only shrinks count
					// in spirit, but the op stream stays uniform.
					size = cfg.DWTLFileSize
					return t.Truncate(p, size)
				}
				size -= 4096
				return t.Truncate(p, size)
			}, nil
		},
	},
	{
		Name:  "MRPL",
		Desc:  "Open a private file in five-depth dirs",
		Setup: setupDeepDirs,
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			p := deepDir(tid) + "/file"
			return func(i int) error {
				fd, err := t.Open(p)
				if err != nil {
					return err
				}
				return t.Close(fd)
			}, nil
		},
	},
	{
		Name:  "MRPM",
		Desc:  "Open a random file in five-depth dirs",
		Setup: setupDeepDirs, // same fileset as MRPL
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			rng := rand.New(rand.NewSource(int64(tid)*7919 + 13))
			return func(i int) error {
				victim := rng.Intn(workerCount(fs))
				fd, err := t.Open(deepDir(victim) + "/file")
				if err != nil {
					return err
				}
				return t.Close(fd)
			}, nil
		},
	},
	{
		Name: "MRPH",
		Desc: "Open the same file in five-depth dirs",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			if err := mkdirAll(t, deepDir(0)); err != nil {
				return err
			}
			err := t.Create(deepDir(0) + "/file")
			if errors.Is(err, fsapi.ErrExist) {
				return nil
			}
			return err
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			p := deepDir(0) + "/file"
			return func(i int) error {
				fd, err := t.Open(p)
				if err != nil {
					return err
				}
				return t.Close(fd)
			}, nil
		},
	},
	{
		Name: "MRDL",
		Desc: "Enumerate files of a private directory",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			for tid := 0; tid < threads; tid++ {
				if err := mkdirAll(t, privDir(tid)); err != nil {
					return err
				}
				for i := 0; i < cfg.DirFiles; i++ {
					if err := t.Create(fmt.Sprintf("%s/f%d", privDir(tid), i)); err != nil {
						return err
					}
				}
			}
			return nil
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			p := privDir(tid)
			return func(i int) error {
				_, err := t.Readdir(p)
				return err
			}, nil
		},
	},
	{
		Name: "MRDM",
		Desc: "Enumerate files of a shared directory",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			if err := mkdirAll(t, "/shared-enum"); err != nil {
				return err
			}
			for i := 0; i < cfg.DirFiles; i++ {
				if err := t.Create(fmt.Sprintf("/shared-enum/f%d", i)); err != nil && !errors.Is(err, fsapi.ErrExist) {
					return err
				}
			}
			return nil
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			return func(i int) error {
				_, err := t.Readdir("/shared-enum")
				return err
			}, nil
		},
	},
	{
		Name: "MWCL",
		Desc: "Create an empty file in a private dir",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			for tid := 0; tid < threads; tid++ {
				if err := mkdirAll(t, privDir(tid)); err != nil {
					return err
				}
			}
			return nil
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			dir := privDir(tid)
			return func(i int) error {
				// Bound the fileset: recycle names with an unlink every
				// other op, as the artifact's bounded variant does.
				p := fmt.Sprintf("%s/c%d", dir, i%4096)
				if err := t.Create(p); errors.Is(err, fsapi.ErrExist) {
					if err := t.Unlink(p); err != nil {
						return err
					}
					return t.Create(p)
				} else if err != nil {
					return err
				}
				return nil
			}, nil
		},
	},
	{
		Name: "MWCM",
		Desc: "Create an empty file in a shared dir (no write, per the artifact)",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			return mkdirAll(t, "/shared-create")
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			return func(i int) error {
				p := fmt.Sprintf("/shared-create/t%d-c%d", tid, i%4096)
				if err := t.Create(p); errors.Is(err, fsapi.ErrExist) {
					if err := t.Unlink(p); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
						return err
					}
					return t.Create(p)
				} else if err != nil {
					return err
				}
				return nil
			}, nil
		},
	},
	{
		Name: "MWUL",
		Desc: "Unlink an empty file in a private dir",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			for tid := 0; tid < threads; tid++ {
				if err := mkdirAll(t, privDir(tid)); err != nil {
					return err
				}
			}
			return nil
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			dir := privDir(tid)
			return func(i int) error {
				p := fmt.Sprintf("%s/u%d", dir, i%1024)
				if err := t.Create(p); err != nil && !errors.Is(err, fsapi.ErrExist) {
					return err
				}
				return t.Unlink(p)
			}, nil
		},
	},
	{
		Name: "MWUM",
		Desc: "Unlink an empty file in a shared dir",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			return mkdirAll(t, "/shared-unlink")
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			return func(i int) error {
				p := fmt.Sprintf("/shared-unlink/t%d-u%d", tid, i%1024)
				if err := t.Create(p); err != nil && !errors.Is(err, fsapi.ErrExist) {
					return err
				}
				return t.Unlink(p)
			}, nil
		},
	},
	{
		Name: "MWRL",
		Desc: "Rename a private file in a private dir",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			for tid := 0; tid < threads; tid++ {
				if err := mkdirAll(t, privDir(tid)); err != nil {
					return err
				}
				if err := t.Create(privDir(tid) + "/ra"); err != nil {
					return err
				}
			}
			return nil
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			a, b := privDir(tid)+"/ra", privDir(tid)+"/rb"
			return func(i int) error {
				if i%2 == 0 {
					return t.Rename(a, b)
				}
				return t.Rename(b, a)
			}, nil
		},
	},
	{
		Name: "MWRM",
		Desc: "Move a private file to a shared dir",
		Setup: func(fs fsapi.FS, threads int, cfg Config) error {
			t := fs.NewThread(0)
			if err := mkdirAll(t, "/shared-move"); err != nil {
				return err
			}
			for tid := 0; tid < threads; tid++ {
				if err := mkdirAll(t, privDir(tid)); err != nil {
					return err
				}
			}
			return nil
		},
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			dir := privDir(tid)
			return func(i int) error {
				src := fmt.Sprintf("%s/m%d", dir, i%1024)
				dst := fmt.Sprintf("/shared-move/t%d-m%d", tid, i%1024)
				if err := t.Create(src); err != nil && !errors.Is(err, fsapi.ErrExist) {
					return err
				}
				if err := t.Unlink(dst); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
					return err
				}
				return t.Rename(src, dst)
			}, nil
		},
	},
}

// workerCount recovers the intended worker count for MRPM. The fileset
// is created for the run's thread count; benchmarks set this before
// running via SetWorkerCount.
var mrpmWorkers = 1

// SetWorkerCount tells MRPM how many private deep-dir filesets exist.
func SetWorkerCount(n int) {
	if n > 0 {
		mrpmWorkers = n
	}
}

func workerCount(fsapi.FS) int { return mrpmWorkers }

// ByName returns the named workload.
func ByName(name string) (Workload, bool) {
	for _, w := range Metadata {
		if w.Name == name {
			return w, true
		}
	}
	for _, w := range DataOps {
		if w.Name == name {
			return w, true
		}
	}
	for _, w := range Leases {
		if w.Name == name {
			return w, true
		}
	}
	for _, w := range Lookup {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// DataOps are the data-path workloads used by §5.1/§5.2.
var DataOps = []Workload{
	{
		Name: "DRBL", Desc: "Read a 4K block of a private file", Data: true,
		Setup:  setupDataFiles,
		Worker: dataWorker(false, false),
	},
	{
		Name: "DRBM", Desc: "Read a 4K block of a shared file", Data: true,
		Setup:  setupSharedDataFile,
		Worker: dataWorker(false, true),
	},
	{
		Name: "DWOL", Desc: "Overwrite a 4K block of a private file", Data: true,
		Setup:  setupDataFiles,
		Worker: dataWorker(true, false),
	},
	{
		Name: "DWAL", Desc: "Append 4K to a private file", Data: true,
		Setup: setupDataFiles,
		Worker: func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
			t := fs.NewThread(tid)
			p := privDir(tid) + "/data"
			fd, err := t.Open(p)
			if err != nil {
				return nil, err
			}
			blob := make([]byte, 4096)
			off := int64(cfg.DataFileSize)
			return func(i int) error {
				// Bound growth: wrap the append window.
				if off > int64(cfg.DataFileSize)+(64<<20) {
					if err := t.Truncate(p, cfg.DataFileSize); err != nil {
						return err
					}
					off = int64(cfg.DataFileSize)
				}
				_, err := t.WriteAt(fd, blob, off)
				off += 4096
				return err
			}, nil
		},
	},
}

func setupDataFiles(fs fsapi.FS, threads int, cfg Config) error {
	t := fs.NewThread(0)
	blob := make([]byte, 1<<20)
	for tid := 0; tid < threads; tid++ {
		if err := mkdirAll(t, privDir(tid)); err != nil {
			return err
		}
		p := privDir(tid) + "/data"
		if err := t.Create(p); err != nil {
			return err
		}
		fd, err := t.Open(p)
		if err != nil {
			return err
		}
		for off := uint64(0); off < cfg.DataFileSize; off += uint64(len(blob)) {
			if _, err := t.WriteAt(fd, blob, int64(off)); err != nil {
				return err
			}
		}
		t.Close(fd)
	}
	return nil
}

func setupSharedDataFile(fs fsapi.FS, threads int, cfg Config) error {
	t := fs.NewThread(0)
	if err := t.Create("/shared-data"); err != nil && !errors.Is(err, fsapi.ErrExist) {
		return err
	}
	fd, err := t.Open("/shared-data")
	if err != nil {
		return err
	}
	blob := make([]byte, 1<<20)
	for off := uint64(0); off < cfg.DataFileSize; off += uint64(len(blob)) {
		if _, err := t.WriteAt(fd, blob, int64(off)); err != nil {
			return err
		}
	}
	return t.Close(fd)
}

func dataWorker(write, shared bool) func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
	return func(fs fsapi.FS, tid int, cfg Config) (func(i int) error, error) {
		t := fs.NewThread(tid)
		p := privDir(tid) + "/data"
		if shared {
			p = "/shared-data"
		}
		fd, err := t.Open(p)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(tid)*31 + 7))
		buf := make([]byte, 4096)
		nblocks := int(cfg.DataFileSize / 4096)
		return func(i int) error {
			off := int64(rng.Intn(nblocks)) * 4096
			if write {
				_, err := t.WriteAt(fd, buf, off)
				return err
			}
			_, err := t.ReadAt(fd, buf, off)
			return err
		}, nil
	}
}
