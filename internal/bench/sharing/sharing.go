// Package sharing reproduces the sharing-cost experiment of the paper's
// Table 4: two applications alternately updating a shared file or a
// shared directory. On ArckFS+ every ownership transfer triggers
// unmapping, integrity verification (cost proportional to the inode's
// metadata size), and auxiliary-state rebuild; a trust group removes the
// verification; NOVA, as a kernel file system, shares for free but pays
// a syscall on every operation.
package sharing

import (
	"fmt"
	"time"

	"arckfs/internal/baseline"
	"arckfs/internal/core"
	"arckfs/internal/costmodel"
	"arckfs/internal/fsapi"
	"arckfs/internal/libfs"
)

// WriteResult is one Table-4 top-half cell.
type WriteResult struct {
	System   string
	FileSize uint64
	GiBps    float64
}

// CreateResult is one Table-4 bottom-half cell.
type CreateResult struct {
	System       string
	Batch        int
	MicrosPerOp  float64
	TotalCreates int
}

// ArckWrite measures 4 KiB-write throughput to a shared file of fileSize
// bytes, ping-ponged between two applications. trust puts them in one
// trust group.
func ArckWrite(sys *core.System, fileSize uint64, trust bool, iters int) (WriteResult, error) {
	app1 := sys.NewApp(0, 0)
	app2 := sys.NewApp(0, 0)
	if trust {
		if _, err := sys.Ctrl.NewTrustGroup(app1.App(), app2.App()); err != nil {
			return WriteResult{}, err
		}
	}
	t1 := app1.NewThread(0).(*libfs.Thread)
	if err := t1.Create("/big"); err != nil {
		return WriteResult{}, err
	}
	fd1, err := t1.Open("/big")
	if err != nil {
		return WriteResult{}, err
	}
	blob := make([]byte, 1<<20)
	for off := uint64(0); off < fileSize; off += uint64(len(blob)) {
		n := uint64(len(blob))
		if off+n > fileSize {
			n = fileSize - off
		}
		if _, err := t1.WriteAt(fd1, blob[:n], int64(off)); err != nil {
			return WriteResult{}, err
		}
	}
	st, err := t1.Stat("/big")
	if err != nil {
		return WriteResult{}, err
	}
	ino := st.Ino
	if err := app1.ReleaseAll(); err != nil {
		return WriteResult{}, err
	}
	t2 := app2.NewThread(0).(*libfs.Thread)
	fd2, err := t2.Open("/big")
	if err != nil {
		return WriteResult{}, err
	}
	if !trust {
		// Start from kernel-held state so the first writer's acquire
		// succeeds without waiting on app2's lease.
		if err := app2.ReleaseInode(ino); err != nil {
			return WriteResult{}, err
		}
	}

	apps := []*libfs.FS{app1, app2}
	threads := []*libfs.Thread{t1, t2}
	fds := []fsapi.FD{fd1, fd2}
	buf := make([]byte, 4096)
	nblocks := int(fileSize / 4096)
	start := time.Now()
	for i := 0; i < iters; i++ {
		k := i % 2
		off := int64((i*7919)%nblocks) * 4096
		if _, err := threads[k].WriteAt(fds[k], buf, off); err != nil {
			return WriteResult{}, fmt.Errorf("iter %d app %d: %w", i, k, err)
		}
		if !trust {
			// Voluntary release so the peer's next acquire succeeds; the
			// kernel verifies the whole file map on this transfer.
			if err := apps[k].ReleaseInode(ino); err != nil {
				return WriteResult{}, fmt.Errorf("release %d: %w", i, err)
			}
		}
	}
	el := time.Since(start)
	name := "arckfs+"
	if trust {
		name = "arckfs+-trust-group"
	}
	return WriteResult{
		System:   name,
		FileSize: fileSize,
		GiBps:    float64(iters) * 4096 / (1 << 30) / el.Seconds(),
	}, nil
}

// ArckCreate measures per-create latency in a shared directory: the two
// applications alternate turns of batch creates each, transferring
// directory ownership between turns.
func ArckCreate(sys *core.System, batch, turns int, trust bool) (CreateResult, error) {
	app1 := sys.NewApp(0, 0)
	app2 := sys.NewApp(0, 0)
	if trust {
		if _, err := sys.Ctrl.NewTrustGroup(app1.App(), app2.App()); err != nil {
			return CreateResult{}, err
		}
	}
	t1 := app1.NewThread(0).(*libfs.Thread)
	if err := t1.Mkdir("/shared"); err != nil {
		return CreateResult{}, err
	}
	st, err := t1.Stat("/shared")
	if err != nil {
		return CreateResult{}, err
	}
	dirIno := st.Ino
	if err := app1.ReleaseAll(); err != nil {
		return CreateResult{}, err
	}
	t2 := app2.NewThread(0).(*libfs.Thread)

	apps := []*libfs.FS{app1, app2}
	threads := []*libfs.Thread{t1, t2}
	total := 0
	start := time.Now()
	for turn := 0; turn < turns; turn++ {
		k := turn % 2
		for i := 0; i < batch; i++ {
			p := fmt.Sprintf("/shared/t%d-i%d", turn, i)
			if err := threads[k].Create(p); err != nil {
				return CreateResult{}, fmt.Errorf("turn %d create %d: %w", turn, i, err)
			}
			total++
		}
		if !trust {
			if err := apps[k].ReleaseInode(dirIno); err != nil {
				return CreateResult{}, fmt.Errorf("turn %d release: %w", turn, err)
			}
		}
	}
	el := time.Since(start)
	name := "arckfs+"
	if trust {
		name = "arckfs+-trust-group"
	}
	return CreateResult{
		System:       name,
		Batch:        batch,
		MicrosPerOp:  el.Seconds() * 1e6 / float64(total),
		TotalCreates: total,
	}, nil
}

// NovaWrite is the kernel-file-system comparator for the write rows: two
// threads of one NOVA instance, no ownership concept.
func NovaWrite(cost *costmodel.Model, devSize int64, fileSize uint64, iters int) (WriteResult, error) {
	fs, err := baseline.New("nova", devSize, cost)
	if err != nil {
		return WriteResult{}, err
	}
	t1 := fs.NewThread(0)
	t2 := fs.NewThread(1)
	if err := t1.Create("/big"); err != nil {
		return WriteResult{}, err
	}
	fd1, _ := t1.Open("/big")
	fd2, _ := t2.Open("/big")
	blob := make([]byte, 1<<20)
	for off := uint64(0); off < fileSize; off += uint64(len(blob)) {
		if _, err := t1.WriteAt(fd1, blob, int64(off)); err != nil {
			return WriteResult{}, err
		}
	}
	buf := make([]byte, 4096)
	nblocks := int(fileSize / 4096)
	threads := []fsapi.Thread{t1, t2}
	fds := []fsapi.FD{fd1, fd2}
	start := time.Now()
	for i := 0; i < iters; i++ {
		k := i % 2
		off := int64((i*7919)%nblocks) * 4096
		if _, err := threads[k].WriteAt(fds[k], buf, off); err != nil {
			return WriteResult{}, err
		}
	}
	el := time.Since(start)
	return WriteResult{System: "nova", FileSize: fileSize, GiBps: float64(iters) * 4096 / (1 << 30) / el.Seconds()}, nil
}

// NovaCreate is the comparator for the create rows.
func NovaCreate(cost *costmodel.Model, devSize int64, batch, turns int) (CreateResult, error) {
	fs, err := baseline.New("nova", devSize, cost)
	if err != nil {
		return CreateResult{}, err
	}
	t1 := fs.NewThread(0)
	t2 := fs.NewThread(1)
	if err := t1.Mkdir("/shared"); err != nil {
		return CreateResult{}, err
	}
	threads := []fsapi.Thread{t1, t2}
	total := 0
	start := time.Now()
	for turn := 0; turn < turns; turn++ {
		k := turn % 2
		for i := 0; i < batch; i++ {
			if err := threads[k].Create(fmt.Sprintf("/shared/t%d-i%d", turn, i)); err != nil {
				return CreateResult{}, err
			}
			total++
		}
	}
	el := time.Since(start)
	return CreateResult{System: "nova", Batch: batch, MicrosPerOp: el.Seconds() * 1e6 / float64(total), TotalCreates: total}, nil
}
