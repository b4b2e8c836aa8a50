// Package verifier implements Trio's trusted userspace integrity
// verifier: when inode ownership moves between applications, it inspects
// the inode's core state in persistent memory and decides whether the
// releasing LibFS's modifications are legitimate.
//
// Two modes reproduce the paper:
//
//   - Original is the verifier as shipped in the Trio artifact. It cannot
//     distinguish a child that was renamed away from one that was deleted,
//     so a legitimate cross-directory rename of a non-empty directory
//     fails invariant I3 on the old parent (§4.1's observed bug).
//   - Enhanced is the ArckFS+ verifier: shadow inodes carry a parent
//     pointer, relocations into a new parent are verified per-operation
//     (old parent held, no descendant cycles, global rename lock held for
//     directories), and the parent pointer is advanced only when the new
//     parent's verification passes.
//
// The verifier never mutates anything: it returns a Result describing the
// shadow-state and allocation updates the kernel should apply.
package verifier

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"arckfs/internal/costmodel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// Mode selects the artifact or the patched verifier.
type Mode int

const (
	// Original is the Trio-artifact verifier (exhibits §4.1).
	Original Mode = iota
	// Enhanced is the ArckFS+ verifier.
	Enhanced
)

// ShadowInfo is the kernel's ground truth about one inode, as the
// verifier is allowed to see it.
type ShadowInfo struct {
	Ino        uint64
	Type       uint16
	Perm       uint16
	UID, GID   uint32
	Parent     uint64
	ChildCount uint32
	Committed  bool
	DataRoot   uint64
	NTails     uint16
}

// KernelView is the verifier's read-only window into kernel state.
type KernelView interface {
	// Shadow returns the shadow record of a committed or pending inode.
	Shadow(ino uint64) (ShadowInfo, bool)
	// InodeGrantedTo reports whether ino is a fresh inode number granted
	// to app and not yet committed.
	InodeGrantedTo(app int64, ino uint64) bool
	// PageUsableBy reports whether app may introduce page into inode
	// ino's structure: the page is granted to app, or already owned by
	// ino.
	PageUsableBy(app int64, ino, page uint64) bool
	// OwnedBy reports whether app currently holds ino.
	OwnedBy(app int64, ino uint64) bool
	// OwnedByOther reports whether some application other than app
	// currently holds ino.
	OwnedByOther(app int64, ino uint64) bool
	// HoldsRenameLock reports whether app holds the global rename lease.
	HoldsRenameLock(app int64) bool
	// IsDescendant reports whether node is anc itself or lies below anc
	// in the verified tree.
	IsDescendant(node, anc uint64) bool
}

// Stats counts the verifier's work units: dentry records and pages
// scanned during core-state parsing. Telemetry-only; the simulated
// verification latency is charged through Cost.
type Stats struct {
	Dentries atomic.Int64
	Pages    atomic.Int64
}

// V is a verifier instance.
type V struct {
	Mode  Mode
	Dev   *pmem.Device
	Geo   layout.Geometry
	Cost  *costmodel.Model
	Stats Stats
}

// --- Core-state parsing ----------------------------------------------------

// A view is the parsed, structurally valid core state of one inode. It is
// immutable once built, and it is also the baseline the next verification
// diffs against: every set a diff needs is kept sorted, so a transfer is
// slice work over what was parsed. A view parsed against a previous one
// shares that view's entries (and name strings), blocks and block set
// wherever they did not change.

// DirEntry is one live name of a directory.
type DirEntry struct {
	Name string
	Ino  uint64
}

// DirView is the parsed core state of a directory.
type DirView struct {
	Inode layout.Inode
	// Entries are the live names, sorted by name; no name and no inode
	// occurs twice.
	Entries []DirEntry
	// Pages are the dentry log pages (excluding the tail-set page) in
	// chain order, tail by tail.
	Pages []uint64
	// Records counts every record slot scanned (live and dead), the
	// verifier's work unit.
	Records int

	pageSet []uint64 // Pages, sorted
}

// FileView is the parsed core state of a regular file.
type FileView struct {
	Inode layout.Inode
	// Blocks holds one entry per block the size implies; zero = hole.
	Blocks []uint64
	// MapPages is the map chain, in chain order.
	MapPages []uint64

	blockSet []uint64 // the nonzero Blocks, sorted; disjoint from mapSet
	mapSet   []uint64 // MapPages, sorted
}

// chain appends the pages linked from head to pages. A page outside the
// data region stops it, and so does a chain that loops: the mark jumps to
// the current page at every power of two (Brent), so a walk caught in a
// loop meets it within about twice the loop's length. A hostile chain
// costs what it occupies, not the device.
func (v *V) chain(pages []uint64, head uint64, kind string) ([]uint64, error) {
	mark, steps, limit := uint64(0), 0, 1
	for p := head; p != 0; p = layout.NextPage(v.Dev, p) {
		if p < v.Geo.DataStart || p >= v.Geo.PageCount {
			return nil, fmt.Errorf("%s page %d out of range", kind, p)
		}
		if p == mark {
			return nil, fmt.Errorf("%s chain cycle at page %d", kind, p)
		}
		if steps++; steps == limit {
			mark, steps, limit = p, 0, 2*limit
		}
		pages = append(pages, p)
	}
	return pages, nil
}

// sortedSet returns pages as a sorted set, and the first page that occurs
// twice, if any.
func sortedSet(pages []uint64) (set []uint64, dup uint64, isDup bool) {
	set = slices.Clone(pages)
	slices.Sort(set)
	for i := 1; i < len(set); i++ {
		if set[i] == set[i-1] {
			return nil, set[i], true
		}
	}
	return set, 0, false
}

// patchSet returns the sorted set old with removed taken out and added put
// in (both sorted; every removed value is in old), and the first value the
// result would hold twice, if any. The stretches of old between the
// patches are copied whole.
func patchSet(old, removed, added []uint64) (set []uint64, dup uint64, isDup bool) {
	if len(removed) == 0 && len(added) == 0 {
		return old, 0, false
	}
	set = make([]uint64, 0, len(old)-len(removed)+len(added))
	for len(removed) > 0 || len(added) > 0 {
		// A value both removed and added only moved: take it out first.
		if len(added) == 0 || len(removed) > 0 && removed[0] <= added[0] {
			i, _ := slices.BinarySearch(old, removed[0])
			set, old, removed = append(set, old[:i]...), old[i+1:], removed[1:]
			continue
		}
		v := added[0]
		i, found := slices.BinarySearch(old, v)
		set, old, added = append(set, old[:i]...), old[i:], added[1:]
		if n := len(set); found || n > 0 && set[n-1] == v {
			return nil, v, true
		}
		set = append(set, v)
	}
	return append(set, old...), 0, false
}

// contains reports whether the sorted set holds v.
func contains(set []uint64, v uint64) bool {
	_, ok := slices.BinarySearch(set, v)
	return ok
}

// searchName finds name (a string, or the bytes of a record) in
// name-sorted entries.
func searchName[S string | []byte](entries []DirEntry, name S) (int, bool) {
	lo, hi := 0, len(entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if entries[m].Name < string(name) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(entries) && entries[lo].Name == string(name)
}

var (
	noDir  DirView
	noFile FileView
)

// ParseDir reads and structurally validates directory ino's core state.
func (v *V) ParseDir(ino uint64) (*DirView, error) {
	dv, _, _, err := v.parseDir(ino, &noDir)
	return dv, err
}

// parseDir is ParseDir given the directory's previous view, whose strings
// it reuses for the names that are still there. was lists the entries of
// prev that are gone or now name another inode, now the entries prev does
// not hold, both sorted by name.
func (v *V) parseDir(ino uint64, prev *DirView) (dv *DirView, was, now []DirEntry, err error) {
	in, ok, corrupt := layout.ReadInode(v.Dev, v.Geo, ino)
	if corrupt {
		return nil, nil, nil, fmt.Errorf("inode %d: corrupt record", ino)
	}
	if !ok || in.Type != layout.TypeDir {
		return nil, nil, nil, fmt.Errorf("inode %d: not a directory", ino)
	}
	if in.DataRoot == 0 || in.DataRoot >= v.Geo.PageCount {
		return nil, nil, nil, fmt.Errorf("inode %d: tail-set page %d out of range", ino, in.DataRoot)
	}
	nt := layout.TailCount(v.Dev, in.DataRoot)
	if nt != int(in.NTails) || nt <= 0 || nt > layout.MaxTails {
		return nil, nil, nil, fmt.Errorf("inode %d: tail count %d disagrees with inode (%d)", ino, nt, in.NTails)
	}
	dv = &DirView{Inode: in, Pages: make([]uint64, 0, len(prev.Pages)+1)}
	// kept marks the entries of prev still there under the same inode;
	// every other live record goes to now.
	kept := make([]bool, len(prev.Entries))
	for t := 0; t < nt; t++ {
		// The head is read once: the chain that is scanned is the chain
		// that was walked, and a cycle never reaches the scan.
		head := layout.TailHead(v.Dev, in.DataRoot, t)
		if dv.Pages, err = v.chain(dv.Pages, head, "log"); err != nil {
			return nil, nil, nil, fmt.Errorf("inode %d: %v", ino, err)
		}
		_, _, corrupt := layout.ScanTail(v.Dev, head, func(d layout.RawDentry) bool {
			dv.Records++
			if !d.Live {
				return true
			}
			if !layout.ValidName(d.Name) {
				err = fmt.Errorf("inode %d: invalid name %q", ino, d.Name)
				return false
			}
			switch i, found := searchName(prev.Entries, d.Name); {
			case !found:
				now = append(now, DirEntry{Name: string(d.Name), Ino: d.Ino})
			case kept[i]:
				err = fmt.Errorf("inode %d: duplicate name %q", ino, d.Name)
				return false
			case prev.Entries[i].Ino == d.Ino:
				kept[i] = true
			default:
				now = append(now, DirEntry{Name: prev.Entries[i].Name, Ino: d.Ino})
			}
			return true
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if corrupt {
			return nil, nil, nil, fmt.Errorf("inode %d: corrupt dentry record (torn commit?)", ino)
		}
	}
	set, dup, isDup := sortedSet(dv.Pages)
	if isDup {
		return nil, nil, nil, fmt.Errorf("inode %d: log page %d linked twice", ino, dup)
	}
	dv.pageSet = set
	for i, k := range kept {
		if !k {
			was = append(was, prev.Entries[i])
		}
	}
	dv.Entries = prev.Entries
	if len(was) > 0 || len(now) > 0 {
		slices.SortFunc(now, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
		if err := dv.mergeEntries(prev.Entries, kept, now); err != nil {
			return nil, nil, nil, fmt.Errorf("inode %d: %v", ino, err)
		}
	}
	v.Cost.VerifyDentries(dv.Records)
	v.Cost.VerifyPages(len(dv.Pages) + 1)
	v.Stats.Dentries.Add(int64(dv.Records))
	v.Stats.Pages.Add(int64(len(dv.Pages) + 1))
	return dv, was, now, nil
}

// mergeEntries sets dv's entries to the kept ones of old plus added (both
// sorted by name), and rejects a name or an inode that then occurs twice.
func (dv *DirView) mergeEntries(old []DirEntry, kept []bool, added []DirEntry) error {
	// The kept entries already name distinct inodes: a second link is
	// between two added entries, or an added and a kept one.
	byIno := slices.Clone(added)
	slices.SortFunc(byIno, func(a, b DirEntry) int { return cmp.Compare(a.Ino, b.Ino) })
	for i := 1; i < len(byIno); i++ {
		if a, b := byIno[i-1], byIno[i]; a.Ino == b.Ino {
			return fmt.Errorf("inode %d linked as both %q and %q", a.Ino, a.Name, b.Name)
		}
	}
	dv.Entries = make([]DirEntry, 0, len(old)+len(added))
	for i, e := range old {
		for len(added) > 0 && added[0].Name <= e.Name {
			dv.Entries, added = append(dv.Entries, added[0]), added[1:]
		}
		if !kept[i] {
			continue
		}
		if j, dup := slices.BinarySearchFunc(byIno, e.Ino, func(a DirEntry, ino uint64) int { return cmp.Compare(a.Ino, ino) }); dup {
			return fmt.Errorf("inode %d linked as both %q and %q", e.Ino, e.Name, byIno[j].Name)
		}
		dv.Entries = append(dv.Entries, e)
	}
	dv.Entries = append(dv.Entries, added...)
	for i := 1; i < len(dv.Entries); i++ {
		if dv.Entries[i].Name == dv.Entries[i-1].Name {
			return fmt.Errorf("duplicate name %q", dv.Entries[i].Name)
		}
	}
	return nil
}

// ParseFile reads and structurally validates file ino's core state.
func (v *V) ParseFile(ino uint64) (*FileView, error) {
	fv, _, _, err := v.parseFile(ino, &noFile)
	return fv, err
}

// parseFile is ParseFile given the file's previous view. came lists, in
// block-map order, the blocks that are not where prev has them; gone, in
// ascending order, the blocks of prev that are no longer where they were.
func (v *V) parseFile(ino uint64, prev *FileView) (fv *FileView, came, gone []uint64, err error) {
	in, ok, corrupt := layout.ReadInode(v.Dev, v.Geo, ino)
	if corrupt {
		return nil, nil, nil, fmt.Errorf("inode %d: corrupt record", ino)
	}
	if !ok || in.Type != layout.TypeFile {
		return nil, nil, nil, fmt.Errorf("inode %d: not a regular file", ino)
	}
	fv = &FileView{Inode: in}
	if fv.MapPages, err = v.chain(make([]uint64, 0, len(prev.MapPages)), in.DataRoot, "map"); err != nil {
		return nil, nil, nil, fmt.Errorf("inode %d: %v", ino, err)
	}
	fv.mapSet, _, _ = sortedSet(fv.MapPages) // one chain without a cycle repeats no page
	// The size is the LibFS's word; the chain bounds what is allocated
	// for it.
	need := layout.BlocksForSize(in.Size)
	if need > len(fv.MapPages)*layout.MapEntriesPerPage {
		return nil, nil, nil, fmt.Errorf("inode %d: map chain too short for size %d", ino, in.Size)
	}
	// The view shares prev's blocks until a pointer differs.
	blocks, shared := prev.Blocks, true
	if need != len(blocks) {
		blocks, shared = make([]uint64, need), false
		copy(blocks, prev.Blocks)
	}
	idx := 0
	for _, page := range fv.MapPages {
		for i := 0; i < layout.MapEntriesPerPage; i, idx = i+1, idx+1 {
			b := layout.MapEntry(v.Dev, page, i)
			if idx >= need {
				if b != 0 {
					return nil, nil, nil, fmt.Errorf("inode %d: block pointer beyond size at index %d", ino, idx)
				}
				continue
			}
			was := blocks[idx]
			if b == was {
				continue
			}
			if shared {
				blocks, shared = slices.Clone(blocks), false
			}
			blocks[idx] = b
			if b != 0 {
				if b < v.Geo.DataStart || b >= v.Geo.PageCount {
					return nil, nil, nil, fmt.Errorf("inode %d: block %d out of range", ino, b)
				}
				came = append(came, b)
			}
			if was != 0 {
				gone = append(gone, was)
			}
		}
	}
	fv.Blocks = blocks
	for _, was := range prev.Blocks[min(need, len(prev.Blocks)):] {
		if was != 0 {
			gone = append(gone, was)
		}
	}
	slices.Sort(gone)
	sorted := slices.Clone(came)
	slices.Sort(sorted)
	set, dup, isDup := patchSet(prev.blockSet, gone, sorted)
	if isDup {
		return nil, nil, nil, fmt.Errorf("inode %d: block %d referenced twice", ino, dup)
	}
	fv.blockSet = set
	for _, p := range fv.MapPages {
		if contains(fv.blockSet, p) {
			return nil, nil, nil, fmt.Errorf("inode %d: block %d is also a map page", ino, p)
		}
	}
	v.Cost.VerifyPages(len(fv.MapPages))
	v.Stats.Pages.Add(int64(len(fv.MapPages)))
	return fv, came, gone, nil
}
