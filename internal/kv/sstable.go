package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"arckfs/internal/fsapi"
)

// SSTable format (all little-endian):
//
//	entries:  [klen u32][vlen u32][key][value]...   (vlen 0xFFFFFFFF = tombstone)
//	index:    [klen u32][key][offset u64]...        (every indexStride-th entry)
//	footer:   indexOff u64 | indexCount u32 | entryCount u32 | smallest/largest key lens u32 u32 | magic u64
//
// The footer is fixed-size at the end of the file; smallest/largest keys
// directly precede it.
const (
	tombstoneLen = uint32(0xFFFFFFFF)
	indexStride  = 16
	ssMagic      = uint64(0x5353544142663031)
	footerSize   = 8 + 4 + 4 + 4 + 4 + 8
)

// tableMeta describes one on-FS table.
type tableMeta struct {
	file     string
	smallest []byte
	largest  []byte
	entries  int
}

// tableWriter accumulates sorted entries into one table image. Keys must
// be added in strictly increasing order. A DB keeps one and resets it for
// every table, so its buffers grow to the largest table once.
type tableWriter struct {
	buf, idx          bytes.Buffer
	smallest, largest []byte
	count             int
}

// reset empties w for the next table, keeping its buffers.
func (w *tableWriter) reset() {
	w.buf.Reset()
	w.idx.Reset()
	w.smallest, w.largest = w.smallest[:0], w.largest[:0]
	w.count = 0
}

func (w *tableWriter) add(key, val []byte, del bool) {
	var hdr [8]byte
	if w.count%indexStride == 0 {
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(key)))
		w.idx.Write(hdr[:4])
		w.idx.Write(key)
		binary.LittleEndian.PutUint64(hdr[:], uint64(w.buf.Len()))
		w.idx.Write(hdr[:])
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(key)))
	vlen := uint32(len(val))
	if del {
		vlen = tombstoneLen
	}
	binary.LittleEndian.PutUint32(hdr[4:], vlen)
	w.buf.Write(hdr[:])
	w.buf.Write(key)
	if !del {
		w.buf.Write(val)
	}
	if w.count == 0 {
		w.smallest = append(w.smallest[:0], key...)
	}
	w.largest = append(w.largest[:0], key...)
	w.count++
}

// sizeWith bounds the file size if key → val were added and the table
// finished: it charges every entry an index slot, which only every
// indexStride-th one takes.
func (w *tableWriter) sizeWith(key, val []byte) int {
	entry := 8 + len(key) + len(val)
	index := 4 + len(key) + 8
	return w.buf.Len() + w.idx.Len() + entry + index + len(w.smallest) + len(key) + footerSize
}

// finish writes the table to path via t, syncs it and returns its meta,
// whose keys are its own: w's buffers serve the next table.
func (w *tableWriter) finish(t fsapi.Thread, path string) (*tableMeta, error) {
	if err := t.Create(path); err != nil {
		return nil, err
	}
	fd, err := t.Open(path)
	if err != nil {
		return nil, err
	}
	defer t.Close(fd)

	indexOff := w.buf.Len()
	indexCount := (w.count + indexStride - 1) / indexStride
	w.buf.Write(w.idx.Bytes())
	// Trailer: smallest key, largest key, footer.
	w.buf.Write(w.smallest)
	w.buf.Write(w.largest)
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(indexOff))
	binary.LittleEndian.PutUint32(foot[8:], uint32(indexCount))
	binary.LittleEndian.PutUint32(foot[12:], uint32(w.count))
	binary.LittleEndian.PutUint32(foot[16:], uint32(len(w.smallest)))
	binary.LittleEndian.PutUint32(foot[20:], uint32(len(w.largest)))
	binary.LittleEndian.PutUint64(foot[24:], ssMagic)
	w.buf.Write(foot[:])

	if _, err := t.WriteAt(fd, w.buf.Bytes(), 0); err != nil {
		return nil, err
	}
	if err := t.Fsync(fd); err != nil {
		return nil, err
	}
	return &tableMeta{file: path, smallest: bytes.Clone(w.smallest), largest: bytes.Clone(w.largest), entries: w.count}, nil
}

// tableReader serves point lookups and scans from one table. It keeps
// the sparse index in memory, as LevelDB keeps index blocks cached.
type tableReader struct {
	t        fsapi.Thread
	fd       fsapi.FD
	meta     *tableMeta
	idxKeys  [][]byte
	idxOffs  []uint64
	dataSize int64
}

func openTable(t fsapi.Thread, meta *tableMeta) (*tableReader, error) {
	fd, err := t.Open(meta.file)
	if err != nil {
		return nil, err
	}
	st, err := t.Stat(meta.file)
	if err != nil {
		return nil, err
	}
	if st.Size < footerSize {
		return nil, fmt.Errorf("kv: table %s too short", meta.file)
	}
	foot := make([]byte, footerSize)
	if _, err := t.ReadAt(fd, foot, int64(st.Size)-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(foot[24:]) != ssMagic {
		return nil, fmt.Errorf("kv: table %s bad magic", meta.file)
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	indexCount := int(binary.LittleEndian.Uint32(foot[8:]))
	smallLen := int64(binary.LittleEndian.Uint32(foot[16:]))
	largeLen := int64(binary.LittleEndian.Uint32(foot[20:]))
	idxLen := int64(st.Size) - footerSize - smallLen - largeLen - indexOff
	idxBuf := make([]byte, idxLen)
	if _, err := t.ReadAt(fd, idxBuf, indexOff); err != nil {
		return nil, err
	}
	r := &tableReader{t: t, fd: fd, meta: meta, dataSize: indexOff}
	pos := 0
	for i := 0; i < indexCount; i++ {
		if pos+4 > len(idxBuf) {
			return nil, fmt.Errorf("kv: table %s truncated index", meta.file)
		}
		kl := int(binary.LittleEndian.Uint32(idxBuf[pos:]))
		pos += 4
		key := append([]byte(nil), idxBuf[pos:pos+kl]...)
		pos += kl
		off := binary.LittleEndian.Uint64(idxBuf[pos:])
		pos += 8
		r.idxKeys = append(r.idxKeys, key)
		r.idxOffs = append(r.idxOffs, off)
	}
	return r, nil
}

func (r *tableReader) close() { r.t.Close(r.fd) }

// blockBufs holds the buffers get reads blocks into. Get runs under the
// DB's read lock, so concurrent readers each take their own; a buffer
// grows to the largest block it has held.
var blockBufs = sync.Pool{New: func() any { return new([]byte) }}

// get performs a point lookup; val is a copy, as the block's buffer goes
// back to blockBufs.
func (r *tableReader) get(key []byte) (val []byte, del, found bool, err error) {
	if len(r.idxKeys) == 0 {
		return nil, false, false, nil
	}
	if bytes.Compare(key, r.meta.smallest) < 0 || bytes.Compare(key, r.meta.largest) > 0 {
		return nil, false, false, nil
	}
	// Find the index block whose first key <= key.
	i := sort.Search(len(r.idxKeys), func(i int) bool {
		return bytes.Compare(r.idxKeys[i], key) > 0
	}) - 1
	if i < 0 {
		return nil, false, false, nil
	}
	start := int64(r.idxOffs[i])
	end := r.dataSize
	if i+1 < len(r.idxOffs) {
		end = int64(r.idxOffs[i+1])
	}
	buf := blockBufs.Get().(*[]byte)
	defer blockBufs.Put(buf)
	n := int(end - start)
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	blk := (*buf)[:n]
	if _, err := r.t.ReadAt(r.fd, blk, start); err != nil {
		return nil, false, false, err
	}
	for pos := 0; pos+8 <= len(blk); {
		var k, v []byte
		var tomb bool
		k, v, tomb, pos = decodeEntry(blk, pos)
		switch bytes.Compare(k, key) {
		case 0:
			if tomb {
				return nil, true, true, nil
			}
			return append([]byte(nil), v...), false, true, nil
		case 1:
			return nil, false, false, nil
		}
	}
	return nil, false, false, nil
}

// decodeEntry parses the entry at data[pos:] and returns the position of
// the one after it; key and val alias data.
func decodeEntry(data []byte, pos int) (key, val []byte, del bool, next int) {
	kl := int(binary.LittleEndian.Uint32(data[pos:]))
	vl := binary.LittleEndian.Uint32(data[pos+4:])
	pos += 8
	key = data[pos : pos+kl]
	pos += kl
	if vl == tombstoneLen {
		return key, nil, true, pos
	}
	return key, data[pos : pos+int(vl)], false, pos + int(vl)
}

// load reads the entry section, which is in key order, for a merge.
func (r *tableReader) load() ([]byte, error) {
	data := make([]byte, r.dataSize)
	_, err := r.t.ReadAt(r.fd, data, 0)
	return data, err
}
