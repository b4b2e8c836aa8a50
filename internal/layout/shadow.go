package layout

import (
	"hash/crc32"

	"arckfs/internal/pmem"
)

// The shadow inode table mirrors the LibFS-visible inode table but is
// owned exclusively by the kernel: it records, for every *verified*
// inode, the attributes the verifier compares against, the parent pointer
// introduced by the §4.1 patch, and the verified child count used for the
// I3 empty-directory check. Recovery trusts the shadow table and
// reconciles LibFS core state against it.

// ShadowExtra carries the shadow-only fields beyond the mirrored inode.
type ShadowExtra struct {
	ChildCount   uint32
	Committed    bool
	Inaccessible bool
}

// Shadow record extra-field offsets (within the one-line record, before
// the format ID; the mirrored inode fields and the ID use the same offsets
// as the inode table).
const (
	shChildCount = 48
	shFlags      = 52

	shFlagCommitted    = 1 << 0
	shFlagInaccessible = 1 << 1
)

// ShadowOff returns the device offset of ino's shadow record.
func ShadowOff(g Geometry, ino uint64) int64 {
	if ino == 0 || ino >= g.InodeCap {
		panic("layout: shadow inode out of range")
	}
	return int64(g.ShadowStart*PageSize) + int64(ino)*InodeSize
}

// WriteShadow encodes the shadow record for ino. Caller persists: the
// kernel queues the record's line with the rest of its crossing's writes
// under one fence, so records are unordered against each other until it.
// A record is one line, so each persists whole.
func WriteShadow(dev *pmem.Device, g Geometry, ino uint64, in *Inode, ex *ShadowExtra) {
	off := ShadowOff(g, ino)
	storeInode(dev, off, in)
	dev.Store32(off+shChildCount, ex.ChildCount)
	var fl uint8
	if ex.Committed {
		fl |= shFlagCommitted
	}
	if ex.Inaccessible {
		fl |= shFlagInaccessible
	}
	dev.Store8(off+shFlags, fl)
	// A slot this format wrote before already carries the ID: only a
	// record's first write in a format stores it.
	if dev.Load32(off+inFormatID) != g.FormatID {
		dev.Store32(off+inFormatID, g.FormatID)
	}
	dev.Store32(off+inCsum, crc32.Checksum(dev.Slice(off, inCsum), crcTab))
}

// ReadShadow decodes ino's shadow record; one of another format is free.
func ReadShadow(dev *pmem.Device, g Geometry, ino uint64) (in Inode, ex ShadowExtra, ok, corrupt bool) {
	off := ShadowOff(g, ino)
	if in, ok, corrupt = loadInode(dev, off, g.FormatID); !ok {
		return in, ex, ok, corrupt
	}
	fl := dev.Load8(off + shFlags)
	ex = ShadowExtra{
		ChildCount:   dev.Load32(off + shChildCount),
		Committed:    fl&shFlagCommitted != 0,
		Inaccessible: fl&shFlagInaccessible != 0,
	}
	return in, ex, true, false
}

// FreeShadow clears ino's shadow record by its type word alone: ReadShadow
// reads a free type as free whatever the rest holds, so a free is one line
// and no crash can tear it into a corrupt record. Caller persists.
func FreeShadow(dev *pmem.Device, g Geometry, ino uint64) {
	dev.Store16(ShadowOff(g, ino)+inType, TypeFree)
}
