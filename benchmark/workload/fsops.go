package workload

import (
	"arckfs/internal/fsapi"
)

// tfs is one worker's handle: a file-system thread plus the span recorder
// of the traced run. Every call the generators make into the file system
// goes through it, so the traced and untraced runs execute the same code
// and differ only in tr being nil.
type tfs struct {
	t  fsapi.Thread
	tr *Tracer
}

func (f *tfs) create(p string) error {
	s := f.tr.Begin(spCreate)
	err := f.t.Create(p)
	f.tr.End(s)
	return err
}

func (f *tfs) mkdir(p string) error {
	s := f.tr.Begin(spMkdir)
	err := f.t.Mkdir(p)
	f.tr.End(s)
	return err
}

func (f *tfs) open(p string) (fsapi.FD, error) {
	s := f.tr.Begin(spOpen)
	fd, err := f.t.Open(p)
	f.tr.End(s)
	return fd, err
}

func (f *tfs) close(fd fsapi.FD) error {
	s := f.tr.Begin(spClose)
	err := f.t.Close(fd)
	f.tr.End(s)
	return err
}

func (f *tfs) stat(p string) (fsapi.Stat, error) {
	s := f.tr.Begin(spStat)
	st, err := f.t.Stat(p)
	f.tr.End(s)
	return st, err
}

func (f *tfs) rename(from, to string) error {
	s := f.tr.Begin(spRename)
	err := f.t.Rename(from, to)
	f.tr.End(s)
	return err
}

func (f *tfs) unlink(p string) error {
	s := f.tr.Begin(spUnlink)
	err := f.t.Unlink(p)
	f.tr.End(s)
	return err
}

func (f *tfs) rmdir(p string) error {
	s := f.tr.Begin(spRmdir)
	err := f.t.Rmdir(p)
	f.tr.End(s)
	return err
}

func (f *tfs) readdir(p string) ([]string, error) {
	s := f.tr.Begin(spReaddir)
	names, err := f.t.Readdir(p)
	f.tr.End(s)
	return names, err
}

func (f *tfs) read4k(fd fsapi.FD, p []byte, off int64) (int, error) {
	s := f.tr.Begin(spRead4k)
	n, err := f.t.ReadAt(fd, p, off)
	f.tr.End(s)
	return n, err
}

// write4k writes one block; span is spWrite4k for an overwrite and
// spAppend4k for a write at end of file.
func (f *tfs) write4k(span int32, fd fsapi.FD, p []byte, off int64) (int, error) {
	s := f.tr.Begin(span)
	n, err := f.t.WriteAt(fd, p, off)
	f.tr.End(s)
	return n, err
}

func (f *tfs) truncate(p string, size uint64) error {
	s := f.tr.Begin(spTruncate)
	err := f.t.Truncate(p, size)
	f.tr.End(s)
	return err
}

func (f *tfs) fsync(fd fsapi.FD) error {
	s := f.tr.Begin(spFsync)
	err := f.t.Fsync(fd)
	f.tr.End(s)
	return err
}
