package baseline

import (
	"sync"

	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
)

// kucofs is the KucoFS-like discipline: kernel-userspace collaboration.
// Lookups and data run in userspace against mapped pages with per-file
// locks and no crossing; every metadata change is shipped to a single
// trusted kernel thread that checks it before applying it — the
// per-operation verification whose cost Trio amortizes away.
type kucofs struct {
	fs *FS
	// kmu models the single trusted thread: every metadata change
	// serializes through it. logPage/logOff are its metadata log's tail.
	kmu     sync.Mutex
	logPage uint64
	logOff  int
}

func (*kucofs) reservedPages() uint64 { return 1 }

// enter charges nothing: applications hold a read-only mapping of the
// namespace; only trusted-thread messages and block grants cross.
func (*kucofs) enter() {}

// trusted runs one metadata change on the trusted thread: one message
// crossing, full serialization, an integrity check of the entries it
// touches, and a persisted 64-byte metadata log record.
func (k *kucofs) trusted(entriesChecked int) error {
	fs := k.fs
	fs.syscall()
	k.kmu.Lock()
	defer k.kmu.Unlock()
	fs.cost.VerifyDentries(entriesChecked)
	if k.logPage == 0 || k.logOff+64 > layout.LogDataSize {
		p, err := fs.alloc.Alloc(0)
		if err != nil {
			return fsapi.ErrNoSpace
		}
		k.logPage, k.logOff = p, 0
	}
	base := int64(k.logPage*layout.PageSize) + int64(k.logOff)
	fs.dev.Store64(base, 0xFACE0001)
	fs.dev.Persist(base, 64)
	k.logOff += 64
	return nil
}

func (k *kucofs) commitCreate(int, *inode, *inode, string) error { return k.trusted(1) }

func (k *kucofs) commitRemove(int, *inode, string, uint64) error { return k.trusted(1) }

func (k *kucofs) commitRename(int, *inode, *inode, string, string, uint64) error {
	return k.trusted(2)
}

func (k *kucofs) commitSize(int, *inode, uint64) error { return k.trusted(1) }

// writeBlock writes in place from userspace; only a block grant crosses.
func (k *kucofs) writeBlock(cpu int, in *inode, bi int, bo int64, data []byte) (page, old uint64, err error) {
	if in.blocks[bi] == 0 {
		k.fs.syscall()
	}
	return k.fs.writeInPlace(cpu, in, bi, bo, data)
}

// commitWrite: the size lives in the userspace-mapped inode.
func (*kucofs) commitWrite(int, *inode, int64, int, uint64, bool) error { return nil }

func (*kucofs) teardownPages(*inode) []uint64 { return nil }
