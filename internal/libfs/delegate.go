package libfs

import (
	"sync"
	"sync/atomic"

	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
)

// I/O delegation, the OdinFS-inspired optimization the Trio paper credits
// for ArckFS's data throughput (§5.2: "ArckFS outperforms other file
// systems by leveraging direct access and I/O delegation"): large
// requests are split into chunks executed by a bounded set of delegate
// workers, overlapping the memory copies across cores.
//
// Delegation is per-application (it lives entirely in the LibFS — another
// example of unprivileged customization). It engages only for requests of
// at least DelegationThreshold bytes; small requests keep the low-latency
// synchronous path.
//
// The persist rule of a delegated write: workers stream whole cache lines
// and nothing else — they queue no flush, issue no fence, fire no
// killpoint and report to no span. The at-most-two ragged edge lines and
// the data barrier belong to the coordinator (the calling thread), which
// writes the edges through its own batch. In the device's crash model a
// streaming store is a store whose line was flushed at once (pmem.WriteNT),
// so until the coordinator's barrier every line a worker wrote may persist
// any prefix of its history — exactly the states a worker's store + clwb
// admitted — and after it all of them are durable. Same fences, same crash
// states, no write-back.

// delegateWorkers bounds the goroutines serving one delegated request,
// the caller included. None outlives the call.
const delegateWorkers = 4

// delegateChunk is the unit of work handed to a worker; a multiple of the
// page size, so chunks of a line-aligned range stay line-aligned.
const delegateChunk = 64 * layout.PageSize

// DelegationThreshold is the request size at which reads and writes are
// fanned out to delegate workers. Zero disables delegation.
const DelegationThreshold = 256 << 10

// fanOut runs fn over [0, n) in delegateChunk pieces, handed out by index
// to at most delegateWorkers goroutines of which the caller is one, and
// returns when every piece is done.
func fanOut(n int, fn func(start, end int)) {
	chunks := (n + delegateChunk - 1) / delegateChunk
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < chunks; i = int(next.Add(1)) - 1 {
			fn(i*delegateChunk, min((i+1)*delegateChunk, n))
		}
	}
	var wg sync.WaitGroup
	for helpers := min(delegateWorkers, chunks) - 1; helpers > 0; helpers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// delegatedCopyOut reads [off, off+len(p)) of st into p in parallel. The
// published block index is immutable once loaded, so workers need no lock
// of their own.
func (fs *FS) delegatedCopyOut(st *fileState, off int64, p []byte) {
	fanOut(len(p), func(start, end int) {
		fs.copyOutRange(st, off+int64(start), p[start:end])
	})
}

// copyOutRange is the synchronous read loop over one byte range. An
// out-of-range or zero index entry is a hole and reads as zeroes (a
// truncate-grown file's size can exceed its published index).
func (fs *FS) copyOutRange(st *fileState, off int64, p []byte) {
	arr := st.blockArr()
	read := 0
	for read < len(p) {
		bi := int((off + int64(read)) / layout.PageSize)
		bo := (off + int64(read)) % layout.PageSize
		n := layout.PageSize - int(bo)
		if n > len(p)-read {
			n = len(p) - read
		}
		var b uint64
		if bi < len(arr) {
			b = arr[bi].Load()
		}
		if b != 0 {
			fs.dev.Killpoint(siteFileReadBlock)
			fs.dev.Read(int64(b*layout.PageSize)+bo, p[read:read+n])
		} else {
			for i := read; i < read+n; i++ {
				p[i] = 0
			}
		}
		read += n
	}
}

// delegatedCopyIn writes p at off. Caller holds the file write lock, has
// already ensured every target block is allocated (so workers never touch
// shared state), and issues the data barrier after the join. The
// coordinator t keeps the ragged head and tail (< one line each) for its
// own batch; the line-aligned interior goes to the workers, each chunk
// through a sink-less batch, and reaches t's sink as one streaming store.
func (fs *FS) delegatedCopyIn(t *Thread, st *fileState, off int64, p []byte) {
	head := int(-off & (pmem.LineSize - 1))
	cut := len(p) - int((off+int64(len(p)))&(pmem.LineSize-1))
	body, bodyOff := p[head:cut], off+int64(head)
	fs.copyInRange(t.pb, st, off, p[:head])
	fs.copyInRange(t.pb, st, off+int64(cut), p[cut:])
	first := st.blockArr()[bodyOff/layout.PageSize].Load()
	t.SpanEvent(telemetry.SpanEvNTStore, int64(first*layout.PageSize)+bodyOff%layout.PageSize, int64(len(body)))
	fanOut(len(body), func(start, end int) {
		fs.copyInRange(fs.dev.NewBatch(), st, bodyOff+int64(start), body[start:end])
	})
}

// copyInRange stores one byte range into pre-allocated blocks. Line-
// aligned whole-line spans are streamed through the batch (non-temporal:
// no write-back at all, durable at the next barrier); ragged edges fall
// back to store+flush.
func (fs *FS) copyInRange(b *pmem.Batch, st *fileState, off int64, p []byte) {
	arr := st.blockArr()
	written := 0
	for written < len(p) {
		bi := int((off + int64(written)) / layout.PageSize)
		bo := (off + int64(written)) % layout.PageSize
		n := layout.PageSize - int(bo)
		if n > len(p)-written {
			n = len(p) - written
		}
		dst := int64(arr[bi].Load()*layout.PageSize) + bo
		if dst%pmem.LineSize == 0 && n%pmem.LineSize == 0 {
			b.WriteStream(dst, p[written:written+n])
		} else {
			fs.dev.Write(dst, p[written:written+n])
			b.Flush(dst, int64(n))
		}
		written += n
	}
}
