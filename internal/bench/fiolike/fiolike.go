// Package fiolike reproduces the fio bandwidth sweeps of the Trio
// evaluation: per-thread private files, sequential or random access, a
// configurable block size, read or write.
package fiolike

import (
	"errors"
	"fmt"
	"math/rand"

	"arckfs/internal/fsapi"
	"arckfs/internal/harness"
)

// Job describes one fio-style run.
type Job struct {
	Name      string
	Write     bool
	Random    bool
	BlockSize int
	FileSize  uint64
}

// StandardJobs mirrors the artifact's fio configurations (4K blocks,
// sequential and random, read and write).
func StandardJobs(fileSize uint64) []Job {
	return []Job{
		{Name: "seq-read-4k", BlockSize: 4096, FileSize: fileSize},
		{Name: "rand-read-4k", Random: true, BlockSize: 4096, FileSize: fileSize},
		{Name: "seq-write-4k", Write: true, BlockSize: 4096, FileSize: fileSize},
		{Name: "rand-write-4k", Write: true, Random: true, BlockSize: 4096, FileSize: fileSize},
	}
}

// Run executes the job on threads workers, opsPerThread block operations
// each, and returns the aggregate result with byte throughput.
func Run(fs fsapi.FS, job Job, threads, opsPerThread int) (harness.Result, error) {
	setup := fs.NewThread(0)
	blob := make([]byte, 1<<20)
	for tid := 0; tid < threads; tid++ {
		p := fmt.Sprintf("/fio%d", tid)
		if err := setup.Create(p); err != nil && !errors.Is(err, fsapi.ErrExist) {
			return harness.Result{}, err
		}
		fd, err := setup.Open(p)
		if err != nil {
			return harness.Result{}, err
		}
		for off := uint64(0); off < job.FileSize; off += uint64(len(blob)) {
			if _, err := setup.WriteAt(fd, blob, int64(off)); err != nil {
				return harness.Result{}, err
			}
		}
		setup.Close(fd)
	}
	workers := make([]func(i int) error, threads)
	for tid := 0; tid < threads; tid++ {
		t := fs.NewThread(tid)
		fd, err := t.Open(fmt.Sprintf("/fio%d", tid))
		if err != nil {
			return harness.Result{}, err
		}
		rng := rand.New(rand.NewSource(int64(tid) + 99))
		buf := make([]byte, job.BlockSize)
		nblocks := int(job.FileSize) / job.BlockSize
		job := job
		workers[tid] = func(i int) error {
			var off int64
			if job.Random {
				off = int64(rng.Intn(nblocks)) * int64(job.BlockSize)
			} else {
				off = int64(i%nblocks) * int64(job.BlockSize)
			}
			if job.Write {
				_, err := t.WriteAt(fd, buf, off)
				return err
			}
			_, err := t.ReadAt(fd, buf, off)
			return err
		}
	}
	res := harness.RunCounted(harness.SourceOf(fs), fs.Name(), "fio/"+job.Name, threads, opsPerThread, func(tid, i int) error {
		return workers[tid](i)
	})
	res.Bytes = res.Ops * int64(job.BlockSize)
	return res, res.Err
}
