package verifier

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// fakeKV is a scriptable KernelView.
type fakeKV struct {
	shadows    map[uint64]ShadowInfo
	granted    map[uint64]bool
	pagesOK    bool
	denied     map[uint64]bool // pages unusable even when pagesOK
	owned      map[uint64]bool
	ownedOther map[uint64]bool
	renameLock bool
	// dev, when set, is the device whose dirty bits CleanPage harvests, as
	// the kernel does for the pages its owner table gives the directory:
	// here every page but the denied ones. Without it every page is dirty.
	dev *pmem.Device
}

func (f *fakeKV) Shadow(ino uint64) (ShadowInfo, bool) {
	s, ok := f.shadows[ino]
	return s, ok
}
func (f *fakeKV) InodeGrantedTo(_ int64, ino uint64) bool { return f.granted[ino] }
func (f *fakeKV) PageUsableBy(_ int64, _, page uint64) bool {
	return f.pagesOK && !f.denied[page]
}
func (f *fakeKV) OwnedBy(_ int64, ino uint64) bool      { return f.owned[ino] }
func (f *fakeKV) OwnedByOther(_ int64, ino uint64) bool { return f.ownedOther[ino] }
func (f *fakeKV) HoldsRenameLock(int64) bool            { return f.renameLock }
func (f *fakeKV) CleanPage(_, page uint64) bool {
	return f.dev != nil && !f.denied[page] && !f.dev.ClearDirty(page)
}
func (f *fakeKV) IsDescendant(node, anc uint64) bool {
	// Walk the fake shadow parents.
	cur := node
	for i := 0; i < 64; i++ {
		if cur == anc {
			return true
		}
		s, ok := f.shadows[cur]
		if !ok || cur == layout.RootIno {
			return false
		}
		cur = s.Parent
	}
	return true
}

// buildDir writes a directory with the given committed entries on a fresh
// device and returns the verifier and dir ino.
func buildDir(t *testing.T, entries map[string]uint64) (*V, *pmem.Device, layout.Geometry, uint64) {
	t.Helper()
	dev := pmem.New(256*layout.PageSize, nil)
	g, err := layout.Mkfs(dev, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	const dirIno = 2
	tailset := g.DataStart + 1
	logPage := g.DataStart + 2
	layout.InitTailSet(dev, tailset, 2)
	layout.ZeroPage(dev, logPage)
	layout.SetTailHead(dev, tailset, 0, logPage)
	in := layout.Inode{Type: layout.TypeDir, Perm: layout.PermRead | layout.PermWrite, Nlink: 2, DataRoot: tailset, NTails: 2, Parent: layout.RootIno}
	layout.WriteInode(dev, g, dirIno, &in)
	off := 0
	for name, ino := range entries {
		r := layout.MakeDentryRef(logPage, off)
		layout.WriteDentryBody(dev, r, ino, name)
		layout.CommitDentry(dev, r, len(name))
		off += layout.DentryRecLen(len(name))
	}
	v := &V{Mode: Enhanced, Dev: dev, Geo: g}
	return v, dev, g, dirIno
}

// oldDir is the view of a directory that held entries and no log page.
func oldDir(entries map[string]uint64) *DirView {
	dv := &DirView{}
	for name, ino := range entries {
		dv.Entries = append(dv.Entries, DirEntry{Name: name, Ino: ino})
	}
	slices.SortFunc(dv.Entries, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return dv
}

func TestParseDirHappyPath(t *testing.T) {
	v, _, _, dir := buildDir(t, map[string]uint64{"a": 10, "b": 11})
	dv, err := v.ParseDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dv.Entries) != 2 || dv.Entries[0].Name != "a" || dv.Entries[0].Ino != 10 {
		t.Fatalf("entries: %+v", dv.Entries)
	}
	if len(dv.Pages) != 1 {
		t.Fatalf("pages: %v", dv.Pages)
	}
}

func TestParseDirRejectsDuplicateNames(t *testing.T) {
	v, dev, _, dir := buildDir(t, map[string]uint64{"a": 10})
	// Append a second live "a" by hand.
	dv, _ := v.ParseDir(dir)
	page := dv.Pages[0]
	off := layout.DentryRecLen(1)
	r := layout.MakeDentryRef(page, off)
	layout.WriteDentryBody(dev, r, 11, "a")
	layout.CommitDentry(dev, r, 1)
	if _, err := v.ParseDir(dir); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name accepted: %v", err)
	}
}

func TestParseDirRejectsDoubleLink(t *testing.T) {
	v, dev, _, dir := buildDir(t, map[string]uint64{"a": 10})
	dv, _ := v.ParseDir(dir)
	page := dv.Pages[0]
	r := layout.MakeDentryRef(page, layout.DentryRecLen(1))
	layout.WriteDentryBody(dev, r, 10, "alias")
	layout.CommitDentry(dev, r, 5)
	if _, err := v.ParseDir(dir); err == nil || !strings.Contains(err.Error(), "linked as both") {
		t.Fatalf("double link accepted: %v", err)
	}
}

func TestParseDirRejectsTornDentry(t *testing.T) {
	v, dev, _, dir := buildDir(t, map[string]uint64{"somewhat-long-name-here": 10})
	dv, _ := v.ParseDir(dir)
	// Tear the name of the one record, at the head of the log page.
	dev.Zero(layout.MakeDentryRef(dv.Pages[0], 0).DevOff()+layout.DentryHeaderSize, 4)
	// The tear is caught either by the hash check ("torn commit") or by
	// name validation of the zeroed bytes; any rejection is correct.
	if _, err := v.ParseDir(dir); err == nil {
		t.Fatal("torn dentry accepted")
	}
}

func TestVerifyDirDetectsImmutableFieldChange(t *testing.T) {
	v, dev, g, dir := buildDir(t, nil)
	in, _, _ := layout.ReadInode(dev, g, dir)
	kv := &fakeKV{
		shadows: map[uint64]ShadowInfo{
			dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
				DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
		},
		pagesOK: true,
	}
	// Tamper with the permission bits.
	in.Perm = 0
	layout.WriteInode(dev, g, dir, &in)
	old := oldDir(nil)
	_, err := v.VerifyDir(1, dir, old, nil, kv)
	if err == nil || !strings.Contains(err.Error(), "permission") {
		t.Fatalf("perm change accepted: %v", err)
	}
}

func TestVerifyDirClassifiesChanges(t *testing.T) {
	v, dev, g, dir := buildDir(t, map[string]uint64{"newfile": 10, "keep": 11})
	in, _, _ := layout.ReadInode(dev, g, dir)
	// The new child's inode record must exist and point at dir.
	child := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead, Nlink: 1, Parent: dir}
	layout.WriteInode(dev, g, 10, &child)
	kv := &fakeKV{
		shadows: map[uint64]ShadowInfo{
			dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
				DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
			11: {Ino: 11, Type: layout.TypeFile, Parent: dir, Committed: true},
			12: {Ino: 12, Type: layout.TypeFile, Parent: dir, Committed: true},
		},
		granted: map[uint64]bool{10: true},
		pagesOK: true,
	}
	// Old state had "keep" and "gone" (a removed file).
	old := oldDir(map[string]uint64{"keep": 11, "gone": 12})
	res, err := v.VerifyDir(1, dir, old, nil, kv)
	if err != nil {
		t.Fatal(err)
	}
	var adds, removes int
	for _, ch := range res.Changes {
		switch ch.Action {
		case AddNew:
			adds++
			if ch.Ino != 10 {
				t.Fatalf("AddNew ino %d", ch.Ino)
			}
		case RemoveFile:
			removes++
			if ch.Ino != 12 {
				t.Fatalf("RemoveFile ino %d", ch.Ino)
			}
		}
	}
	if adds != 1 || removes != 1 {
		t.Fatalf("adds=%d removes=%d changes=%+v", adds, removes, res.Changes)
	}
	if len(res.NewPages) != 1 {
		t.Fatalf("new pages: %v", res.NewPages)
	}
}

func TestVerifyDirRejectsRemovalOfHeldInode(t *testing.T) {
	v, dev, g, dir := buildDir(t, nil)
	in, _, _ := layout.ReadInode(dev, g, dir)
	kv := &fakeKV{
		shadows: map[uint64]ShadowInfo{
			dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
				DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
			12: {Ino: 12, Type: layout.TypeFile, Parent: dir, Committed: true},
		},
		ownedOther: map[uint64]bool{12: true},
		pagesOK:    true,
	}
	old := oldDir(map[string]uint64{"theirs": 12})
	_, err := v.VerifyDir(1, dir, old, nil, kv)
	if err == nil || !strings.Contains(err.Error(), "another application") {
		t.Fatalf("removal of held inode accepted: %v", err)
	}
}

func TestVerifyDirI3ByMode(t *testing.T) {
	for _, mode := range []Mode{Original, Enhanced} {
		v, dev, g, dir := buildDir(t, nil)
		v.Mode = mode
		in, _, _ := layout.ReadInode(dev, g, dir)
		kv := &fakeKV{
			shadows: map[uint64]ShadowInfo{
				dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
					DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
				// The removed child is a non-empty dir whose verified
				// parent already moved to 99.
				20: {Ino: 20, Type: layout.TypeDir, Parent: 99, ChildCount: 3, Committed: true},
			},
			pagesOK: true,
		}
		old := oldDir(map[string]uint64{"moved": 20})
		res, err := v.VerifyDir(1, dir, old, nil, kv)
		if mode == Enhanced {
			if err != nil {
				t.Fatalf("enhanced rejected a renamed-away dir: %v", err)
			}
			if len(res.Changes) != 1 || res.Changes[0].Action != RenamedAway {
				t.Fatalf("changes: %+v", res.Changes)
			}
		} else {
			// Original cannot tell rename from deletion: I3 failure.
			if err == nil || !strings.Contains(err.Error(), "I3") {
				t.Fatalf("original accepted non-empty dir removal: %v", err)
			}
		}
	}
}

func TestVerifyDirRelocationChecks(t *testing.T) {
	mk := func() (*V, *fakeKV, *DirView, uint64) {
		v, dev, g, dir := buildDir(t, map[string]uint64{"stolen": 30})
		in, _, _ := layout.ReadInode(dev, g, dir)
		kv := &fakeKV{
			shadows: map[uint64]ShadowInfo{
				dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
					DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
				30: {Ino: 30, Type: layout.TypeDir, Parent: 40, ChildCount: 1, Committed: true},
				40: {Ino: 40, Type: layout.TypeDir, Parent: layout.RootIno, Committed: true},
			},
			pagesOK: true,
		}
		return v, kv, oldDir(nil), dir
	}

	// Missing: old parent not held.
	v, kv, old, dir := mk()
	kv.renameLock = true
	if _, err := v.VerifyDir(1, dir, old, nil, kv); err == nil || !strings.Contains(err.Error(), "old parent") {
		t.Fatalf("relocation without old parent held: %v", err)
	}
	// Missing: rename lock.
	v, kv, old, dir = mk()
	kv.owned = map[uint64]bool{40: true}
	if _, err := v.VerifyDir(1, dir, old, nil, kv); err == nil || !strings.Contains(err.Error(), "rename lock") {
		t.Fatalf("relocation without rename lock: %v", err)
	}
	// All requirements met.
	v, kv, old, dir = mk()
	kv.owned = map[uint64]bool{40: true}
	kv.renameLock = true
	res, err := v.VerifyDir(1, dir, old, nil, kv)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 1 || res.Changes[0].Action != RelocateIn {
		t.Fatalf("changes: %+v", res.Changes)
	}
}

func TestVerifyDirRejectsUngrantedPages(t *testing.T) {
	v, dev, g, dir := buildDir(t, map[string]uint64{"a": 10})
	in, _, _ := layout.ReadInode(dev, g, dir)
	child := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead, Nlink: 1, Parent: dir}
	layout.WriteInode(dev, g, 10, &child)
	kv := &fakeKV{
		shadows: map[uint64]ShadowInfo{
			dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
				DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
		},
		granted: map[uint64]bool{10: true},
		pagesOK: false, // nothing granted
	}
	old := oldDir(nil)
	if _, err := v.VerifyDir(1, dir, old, nil, kv); err == nil || !strings.Contains(err.Error(), "not granted") {
		t.Fatalf("ungranted page accepted: %v", err)
	}
}

func TestParseFileChecks(t *testing.T) {
	dev := pmem.New(256*layout.PageSize, nil)
	g, err := layout.Mkfs(dev, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := &V{Mode: Enhanced, Dev: dev, Geo: g}
	const ino = 3
	mapPage := g.DataStart + 1
	data1 := g.DataStart + 2
	layout.ZeroPage(dev, mapPage)
	layout.SetMapEntry(dev, mapPage, 0, data1)
	in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead, Nlink: 1, Size: 100, DataRoot: mapPage, Parent: layout.RootIno}
	layout.WriteInode(dev, g, ino, &in)

	fv, err := v.ParseFile(ino)
	if err != nil {
		t.Fatal(err)
	}
	if len(fv.Blocks) != 1 || fv.Blocks[0] != data1 {
		t.Fatalf("blocks: %v", fv.Blocks)
	}

	// A pointer beyond the size is rejected.
	layout.SetMapEntry(dev, mapPage, 1, data1+1)
	if _, err := v.ParseFile(ino); err == nil || !strings.Contains(err.Error(), "beyond size") {
		t.Fatalf("trailing pointer accepted: %v", err)
	}
	layout.SetMapEntry(dev, mapPage, 1, 0)

	// A doubly-referenced block is rejected.
	in.Size = 8192
	layout.WriteInode(dev, g, ino, &in)
	layout.SetMapEntry(dev, mapPage, 1, data1)
	if _, err := v.ParseFile(ino); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("double block accepted: %v", err)
	}

	// A map-chain cycle is rejected.
	layout.SetMapEntry(dev, mapPage, 1, 0)
	layout.SetNextPage(dev, mapPage, mapPage)
	if _, err := v.ParseFile(ino); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("map cycle accepted: %v", err)
	}
}

func TestVerifyNewInodeParentMismatch(t *testing.T) {
	dev := pmem.New(256*layout.PageSize, nil)
	g, _ := layout.Mkfs(dev, 64, 2)
	v := &V{Mode: Enhanced, Dev: dev, Geo: g}
	in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead, Nlink: 1, Parent: 7}
	layout.WriteInode(dev, g, 5, &in)
	kv := &fakeKV{pagesOK: true}
	if _, err := v.VerifyNewInode(1, 5, 9, nil, kv); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("parent mismatch accepted: %v", err)
	}
	if _, err := v.VerifyNewInode(1, 5, 7, nil, kv); err != nil {
		t.Fatalf("valid new inode rejected: %v", err)
	}
}

// --- Images for the differential, rejection and allocation tests ----------

// img is a device on which tests lay out directory logs and block maps by
// hand, page by page.
type img struct {
	tb   testing.TB
	v    *V
	dev  *pmem.Device
	g    layout.Geometry
	next uint64
	// scratch is where rewriteDir renders a directory before it stores the
	// pages that differ.
	scratch *pmem.Device
}

const (
	imgDir  = 2 // inode of the image's directory
	imgFile = 3 // inode of the image's file
)

func newImg(tb testing.TB, pages int) *img {
	tb.Helper()
	dev := pmem.New(int64(pages)*layout.PageSize, nil)
	g, err := layout.Mkfs(dev, 64, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return &img{tb: tb, v: &V{Mode: Enhanced, Dev: dev, Geo: g}, dev: dev, g: g, next: g.DataStart + 1}
}

// page hands out a fresh page number.
func (m *img) page() uint64 {
	m.next++
	if m.next > m.g.PageCount {
		m.tb.Fatal("image out of pages")
	}
	return m.next - 1
}

func (m *img) pages(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = m.page()
	}
	return out
}

type rec struct {
	name string
	ino  uint64
	dead bool
}

// writeDir makes imgDir a two-tail directory on tailset whose tail t is the
// chain tails[t], and spreads recs over the tails round-robin.
func (m *img) writeDir(tailset uint64, tails [2][]uint64, recs []rec) {
	m.tb.Helper()
	m.layDir(m.dev, tailset, tails, recs)
}

// rewriteDir lays out the directory writeDir would, as a LibFS does it:
// only the pages whose bytes change are stored to. It returns those pages,
// and the record slots on each page of the chain.
func (m *img) rewriteDir(tailset uint64, tails [2][]uint64, recs []rec) (written map[uint64]bool, slots map[uint64]int) {
	m.tb.Helper()
	if m.scratch == nil {
		m.scratch = pmem.New(m.dev.Size(), nil)
	}
	slots = m.layDir(m.scratch, tailset, tails, recs)
	written = map[uint64]bool{}
	for _, p := range slices.Concat([]uint64{tailset}, tails[0], tails[1]) {
		off := int64(p) * layout.PageSize
		if want := m.scratch.Slice(off, layout.PageSize); !bytes.Equal(want, m.dev.Slice(off, layout.PageSize)) {
			m.dev.Write(off, want)
			written[p] = true
		}
	}
	in, _, _ := layout.ReadInode(m.scratch, m.g, imgDir)
	layout.WriteInode(m.dev, m.g, imgDir, &in)
	return written, slots
}

// fits reports whether writeDir can lay recs out on tails.
func fits(tails [2][]uint64, recs []rec) bool {
	var at [2]struct{ page, off int }
	for i, r := range recs {
		c := &at[i%2]
		if !layout.DentryFits(c.off, len(r.name)) {
			c.page, c.off = c.page+1, 0
		}
		if c.page >= len(tails[i%2]) {
			return false
		}
		c.off += layout.DentryRecLen(len(r.name))
	}
	return true
}

// layDir is writeDir on dev, returning the record slots on each log page.
func (m *img) layDir(dev *pmem.Device, tailset uint64, tails [2][]uint64, recs []rec) map[uint64]int {
	m.tb.Helper()
	layout.InitTailSet(dev, tailset, 2)
	var at [2]struct{ page, off int }
	for t, chain := range tails {
		for i, p := range chain {
			layout.ZeroPage(dev, p)
			if i == 0 {
				layout.SetTailHead(dev, tailset, t, p)
			} else {
				layout.SetNextPage(dev, chain[i-1], p)
			}
		}
	}
	slots := map[uint64]int{}
	for i, r := range recs {
		t := i % 2
		c := &at[t]
		if !layout.DentryFits(c.off, len(r.name)) {
			c.page, c.off = c.page+1, 0
		}
		if c.page >= len(tails[t]) {
			m.tb.Fatalf("tail %d: %d pages do not hold the records", t, len(tails[t]))
		}
		ref := layout.MakeDentryRef(tails[t][c.page], c.off)
		layout.WriteDentryBody(dev, ref, r.ino, r.name)
		if !r.dead {
			layout.CommitDentry(dev, ref, len(r.name))
		}
		c.off += layout.DentryRecLen(len(r.name))
		slots[tails[t][c.page]]++
	}
	in := layout.Inode{Type: layout.TypeDir, Perm: layout.PermRead | layout.PermWrite, Nlink: 2,
		DataRoot: tailset, NTails: 2, Parent: layout.RootIno}
	layout.WriteInode(dev, m.g, imgDir, &in)
	return slots
}

// writeFile makes imgFile a file of size bytes whose map chain is mapPages
// and whose block pointers (any number of them) are blocks.
func (m *img) writeFile(size uint64, mapPages, blocks []uint64) {
	m.tb.Helper()
	root := uint64(0)
	for i, p := range mapPages {
		layout.ZeroPage(m.dev, p)
		if i == 0 {
			root = p
		} else {
			layout.SetNextPage(m.dev, mapPages[i-1], p)
		}
	}
	for i, b := range blocks {
		layout.SetMapEntry(m.dev, mapPages[i/layout.MapEntriesPerPage], i%layout.MapEntriesPerPage, b)
	}
	in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead | layout.PermWrite, Nlink: 1,
		Size: size, DataRoot: root, Parent: layout.RootIno}
	layout.WriteInode(m.dev, m.g, imgFile, &in)
}

// kv is the kernel view of an image: its directory and file are committed
// under the root, every other inode is a committed file under imgDir, and
// every page but the denied ones is usable.
func (m *img) kv(denied ...uint64) *fakeKV {
	dir, _, _ := layout.ReadInode(m.dev, m.g, imgDir)
	kv := &fakeKV{pagesOK: true, denied: map[uint64]bool{}, dev: m.dev, shadows: map[uint64]ShadowInfo{
		imgDir: {Ino: imgDir, Type: layout.TypeDir, Perm: layout.PermRead | layout.PermWrite, Parent: layout.RootIno,
			DataRoot: dir.DataRoot, NTails: 2, Committed: true},
		imgFile: {Ino: imgFile, Type: layout.TypeFile, Perm: layout.PermRead | layout.PermWrite, Parent: layout.RootIno, Committed: true},
	}}
	for ino := uint64(100); ino < 400; ino++ {
		kv.shadows[ino] = ShadowInfo{Ino: ino, Type: layout.TypeFile, Parent: imgDir, Committed: true}
	}
	for _, p := range denied {
		kv.denied[p] = true
	}
	return kv
}

// --- The map-based reference diff -----------------------------------------

// refChange is one expected ChildChange, its Action reduced to add or not.
type refChange struct {
	name string
	ino  uint64
	add  bool
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// refDirChanges is the entry diff as the map-based verifier computed it.
func refDirChanges(old, cur map[string]uint64) (out []refChange) {
	added := map[uint64]bool{}
	for name, ino := range cur {
		if o, ok := old[name]; !ok || o != ino {
			added[ino] = true
		}
	}
	for _, name := range sortedKeys(cur) {
		o, existed := old[name]
		if existed && o == cur[name] {
			continue
		}
		if existed && !added[o] {
			out = append(out, refChange{name, o, false})
		}
		out = append(out, refChange{name, cur[name], true})
	}
	for _, name := range sortedKeys(old) {
		if _, still := cur[name]; !still && !added[old[name]] {
			out = append(out, refChange{name, old[name], false})
		}
	}
	return out
}

// refPages is the page diff as the map-based verifier computed it: meta
// (log or map pages) and blocks are the two namespaces of the old and the
// current state; ok is false when a current page occurs twice.
func refPages(oldMeta, oldBlocks, curMeta, curBlocks []uint64) (newPages, freed []uint64, ok bool) {
	oldM, oldB, cur := map[uint64]bool{}, map[uint64]bool{}, map[uint64]bool{}
	for _, p := range oldMeta {
		oldM[p] = true
	}
	for _, b := range oldBlocks {
		oldB[b] = b != 0
	}
	for _, p := range curMeta {
		if cur[p] {
			return nil, nil, false
		}
		if cur[p] = true; !oldM[p] {
			newPages = append(newPages, p)
		}
	}
	for _, b := range curBlocks {
		if b == 0 {
			continue
		}
		if cur[b] {
			return nil, nil, false
		}
		if cur[b] = true; !oldB[b] && !oldM[b] {
			newPages = append(newPages, b)
		}
	}
	for _, p := range sortedKeys(oldM) {
		if !cur[p] {
			freed = append(freed, p)
		}
	}
	for _, b := range sortedKeys(oldB) {
		if oldB[b] && !cur[b] {
			freed = append(freed, b)
		}
	}
	return newPages, freed, true
}

func anyDenied(kv *fakeKV, pages []uint64) bool {
	return slices.ContainsFunc(pages, func(p uint64) bool { return kv.denied[p] })
}

// verifierWork is a reading of a verifier's work counters.
type verifierWork struct{ dentries, pages, clean int64 }

func work(v *V) verifierWork {
	return verifierWork{v.Stats.Dentries.Load(), v.Stats.Pages.Load(), v.Stats.PagesClean.Load()}
}

func (w verifierWork) minus(o verifierWork) verifierWork {
	return verifierWork{w.dentries - o.dentries, w.pages - o.pages, w.clean - o.clean}
}

// pick returns up to n distinct elements of pool, shuffled.
func pick[T any](rng *rand.Rand, pool []T, n int) []T {
	out := slices.Clone(pool)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:min(n, len(out))]
}

// TestVerifyDirMatchesMapReference drives a directory through seeded random
// rounds — names added, removed, renamed within the directory, re-pointed
// and swapped, the log rewritten onto kept and fresh pages or changed in
// place (dead records and appends, as a LibFS does it), and now and then a
// duplicate name, a double link, a shared page or a page the kernel
// denies — and demands of every round the verdict, and Changes, NewPages and
// FreedPages in the order, the map-based verifier gave. Each round stores
// only the pages it changes, so the verifier takes every other page of the
// baseline unread: each accepted view is the next round's baseline, and must
// equal a cold parse of the image field by field, and the records and pages
// it scanned must be exactly those of the pages stored to since their last
// verification, the pages new to the chain and the pages the kernel does
// not give the directory. A rejected round leaves the baseline in place
// with its pages dirty again, as the kernel does.
func TestVerifyDirMatchesMapReference(t *testing.T) {
	var accepted, rejected, changes, pages, scanned, taken int
	defer func() {
		t.Logf("%d rounds accepted (%d changes, %d pages new or freed; %d pages scanned, %d taken clean), %d rejected",
			accepted, changes, pages, scanned, taken, rejected)
		if accepted < 500 || rejected < 100 || changes < 2000 || pages < 1000 || taken < 1000 || scanned < 1000 {
			t.Error("the generator no longer covers both verdicts, both diffs and both kinds of page")
		}
	}()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newImg(t, 512)
		tailset := m.page()
		pool := m.pages(12)
		names := make([]string, 48)
		for i := range names {
			// Up to 120 bytes: a tail's records span pages.
			names[i] = fmt.Sprintf("%c%x%s", 'a'+rng.Intn(4), rng.Intn(1<<16)+i<<16, strings.Repeat("-", rng.Intn(112)))
		}
		inos := make([]uint64, 200)
		for i := range inos {
			inos[i] = 100 + uint64(i)
		}
		m.writeDir(tailset, [2][]uint64{}, nil)
		old, err := m.v.ParseDir(imgDir)
		if err != nil {
			t.Fatal(err)
		}
		// stale is the test's own account of the dirty bits: a page is
		// stale from its last store until a verification harvests it. A
		// new device's pages are all stale.
		stale := map[uint64]bool{}
		isStale := func(p uint64) bool { s, seen := stale[p]; return s || !seen }
		oldMap := map[string]uint64{}
		var oldRecs []rec // the records of the last accepted round
		var oldTails [2][]uint64
		for round := 0; round < 30; round++ {
			cur := map[string]uint64{}
			for k, v := range oldMap {
				cur[k] = v
			}
			free := func() uint64 { // an inode no name holds
			retry:
				ino := inos[rng.Intn(len(inos))]
				for _, held := range cur {
					if held == ino {
						goto retry
					}
				}
				return ino
			}
			held := sortedKeys(cur)
			for n := rng.Intn(8); n > 0; n-- {
				name := names[rng.Intn(len(names))]
				switch _, has := cur[name]; {
				case !has:
					cur[name] = free()
				case rng.Intn(3) == 0:
					cur[name] = free() // re-pointed
				case rng.Intn(2) == 0 && len(held) > 1:
					other := held[rng.Intn(len(held))]
					if _, ok := cur[other]; ok {
						cur[name], cur[other] = cur[other], cur[name] // swapped
					}
				case rng.Intn(2) == 0:
					to := names[rng.Intn(len(names))]
					if _, taken := cur[to]; !taken {
						cur[to] = cur[name] // renamed within the directory
						delete(cur, name)
					}
				default:
					delete(cur, name)
				}
			}
			// In place: the last accepted records, a gone name's record dead,
			// a re-pointed one's inode rewritten, new names appended, on the
			// same chain. Otherwise the live names, shuffled, on a new chain.
			inPlace := oldRecs != nil && rng.Intn(2) == 0
			var recs []rec
			if inPlace {
				recs = slices.Clone(oldRecs)
				for i, r := range recs {
					if ino, still := cur[r.name]; !r.dead && !still {
						recs[i].dead = true
					} else if !r.dead {
						recs[i].ino = ino
					}
				}
				for _, name := range sortedKeys(cur) {
					if _, had := oldMap[name]; !had {
						recs = append(recs, rec{name: name, ino: cur[name]})
					}
				}
			} else {
				for _, name := range sortedKeys(cur) {
					recs = append(recs, rec{name: name, ino: cur[name]})
				}
			}
			for n := rng.Intn(4); n > 0; n-- {
				recs = append(recs, rec{name: names[rng.Intn(len(names))], ino: free(), dead: true})
			}
			wantOK := true
			switch rng.Intn(12) {
			case 0: // a second live record of a name
				if len(cur) > 0 {
					name := sortedKeys(cur)[0]
					recs = append(recs, rec{name: name, ino: free()})
					wantOK = false
				}
			case 1: // a second name for an inode
				if len(cur) > 0 {
					recs = append(recs, rec{name: "alias", ino: cur[sortedKeys(cur)[0]]})
					wantOK = false
				}
			}
			tails := oldTails
			if inPlace = inPlace && fits(tails, recs); !inPlace {
				rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
				for n := 2 + rng.Intn(4); ; n++ {
					chain := pick(rng, pool, n)
					if tails = [2][]uint64{chain[:len(chain)/2], chain[len(chain)/2:]}; fits(tails, recs) {
						break
					}
				}
				if rng.Intn(12) == 0 {
					tails[1] = append(tails[1], tails[0][0]) // tail 1 runs into tail 0
					wantOK = false
				}
			}
			written, slots := m.rewriteDir(tailset, tails, recs)
			for p := range written {
				stale[p] = true
			}
			var denied []uint64
			if rng.Intn(6) == 0 {
				denied = pick(rng, pool, 1)
			}
			kv := m.kv(denied...)

			curPages := append(slices.Clone(tails[0]), tails[1]...)
			wantNew, wantFreed, pagesOK := refPages(old.Pages, nil, curPages, nil)
			wantOK = wantOK && pagesOK && !anyDenied(kv, wantNew)
			// A page is scanned if it is stale, new to the chain, or not the
			// directory's; every other one is taken from the baseline.
			wantRecs, wantPages := 0, 0
			for _, p := range slices.Concat([]uint64{tailset}, curPages) {
				inBase := old.hasPage(p)
				if isStale(p) || kv.denied[p] || !inBase && p != tailset {
					wantRecs, wantPages = wantRecs+slots[p], wantPages+1
				}
			}
			before := work(m.v)
			res, err := m.v.VerifyDir(1, imgDir, old, nil, kv)
			if (err == nil) != wantOK {
				t.Fatalf("seed %d round %d: verdict %v, reference accepts: %v", seed, round, err, wantOK)
			}
			if err != nil {
				rejected++
				// The kernel rolls back: the baseline stands, and the next
				// verification reads its pages again (here a store of a
				// word's own value marks them). Pages outside it are scanned
				// when next met anyway.
				for _, p := range append([]uint64{tailset}, old.Pages...) {
					off := int64(p) * layout.PageSize
					m.dev.Store64(off, m.dev.Load64(off))
					stale[p] = true
				}
				continue
			}
			for _, p := range slices.Concat([]uint64{tailset}, curPages) {
				if !kv.denied[p] {
					stale[p] = false
				}
			}
			if d, want := work(m.v).minus(before), (verifierWork{int64(wantRecs), int64(wantPages), int64(1 + len(curPages) - wantPages)}); d != want {
				t.Fatalf("seed %d round %d: scanned %d records on %d pages and took %d clean, want %d, %d and %d",
					seed, round, d.dentries, d.pages, d.clean, want.dentries, want.pages, want.clean)
			}
			scanned, taken = scanned+wantPages, taken+1+len(curPages)-wantPages
			accepted, changes, pages = accepted+1, changes+len(res.Changes), pages+len(res.NewPages)+len(res.FreedPages)
			var got []refChange
			for _, ch := range res.Changes {
				got = append(got, refChange{ch.Name, ch.Ino, ch.Action == RelocateIn})
			}
			if want := refDirChanges(oldMap, cur); !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: changes\n got %v\nwant %v", seed, round, got, want)
			}
			if !slices.Equal(res.NewPages, wantNew) || !slices.Equal(res.FreedPages, wantFreed) {
				t.Fatalf("seed %d round %d: pages new %v freed %v, want %v and %v", seed, round, res.NewPages, res.FreedPages, wantNew, wantFreed)
			}
			cold, err := m.v.ParseDir(imgDir)
			if v := res.View; err != nil || cold.Inode != v.Inode || cold.Records != v.Records || !slices.Equal(cold.Entries, v.Entries) ||
				!slices.Equal(cold.Pages, v.Pages) || !slices.Equal(cold.heads, v.heads) || !slices.Equal(cold.byPage, v.byPage) {
				t.Fatalf("seed %d round %d: the view verified against a baseline differs from a cold parse (%v)\n got %+v\nwant %+v", seed, round, err, v, cold)
			}
			old, oldMap, oldRecs, oldTails = res.View, cur, recs, tails
		}
	}
}

// TestVerifyFileMatchesMapReference is the file counterpart: blocks change,
// move, swap, fill holes and become holes, the file shrinks and grows, the
// map chain loses, gains and reorders pages, blocks and map pages trade
// places, and now and then a block is referenced twice, doubles as a map
// page, or is one the kernel denies.
func TestVerifyFileMatchesMapReference(t *testing.T) {
	const per = layout.MapEntriesPerPage
	var accepted, rejected, pages int
	defer func() {
		t.Logf("%d rounds accepted (%d pages new or freed), %d rejected", accepted, pages, rejected)
		if accepted < 500 || rejected < 100 || pages < 2000 {
			t.Error("the generator no longer covers both verdicts and the diff")
		}
	}()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newImg(t, 512)
		pool := m.pages(64)
		m.writeFile(0, nil, nil)
		old, err := m.v.ParseFile(imgFile)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 30; round++ {
			maps, blocks := slices.Clone(old.MapPages), slices.Clone(old.Blocks)
			free := func() uint64 { // a page the file does not use, or 0 when it is hard to find
				for try := 0; try < 8; try++ {
					if p := pool[rng.Intn(len(pool))]; !slices.Contains(maps, p) && !slices.Contains(blocks, p) {
						return p
					}
				}
				return 0
			}
			switch p := free(); rng.Intn(6) { // the chain
			case 0, 1:
				if len(maps) < 3 && p != 0 {
					maps = append(maps, p)
				}
			case 2:
				if len(maps) > 1 {
					maps = maps[:len(maps)-1]
				}
			case 3:
				if len(maps) > 0 && p != 0 {
					maps[rng.Intn(len(maps))] = p
				}
			case 4:
				rng.Shuffle(len(maps), func(i, j int) { maps[i], maps[j] = maps[j], maps[i] })
			}
			// Blocks live in the first stretch of the file, so that rounds
			// collide; the size roams over the whole chain.
			need := 0
			if len(maps) > 0 {
				need = rng.Intn(min(len(maps)*per, 40+rng.Intn(1+len(maps)*per)) + 1)
			}
			blocks = append(blocks, make([]uint64, len(maps)*per)...)[:need]
			for n := rng.Intn(24); n > 0 && need > 0; n-- {
				i, j := rng.Intn(min(need, 40)), rng.Intn(min(need, 40))
				switch rng.Intn(6) {
				case 0, 1, 2:
					blocks[i] = free()
				case 3:
					blocks[i], blocks[j] = blocks[j], blocks[i]
				case 4:
					blocks[i] = 0
				case 5:
					if blocks[i] != 0 {
						k := rng.Intn(len(maps))
						maps[k], blocks[i] = blocks[i], maps[k] // trade places
					}
				}
			}
			switch rng.Intn(10) {
			case 0: // a block referenced twice
				if need > 1 && blocks[0] != 0 {
					blocks[need-1] = blocks[0]
				}
			case 1: // a block that is also a map page
				if need > 0 {
					blocks[rng.Intn(need)] = maps[rng.Intn(len(maps))]
				}
			}
			m.writeFile(uint64(need)*layout.PageSize, maps, blocks)
			var denied []uint64
			if rng.Intn(6) == 0 {
				denied = pick(rng, pool, 4)
			}
			kv := m.kv(denied...)

			wantNew, wantFreed, wantOK := refPages(old.MapPages, old.Blocks, maps, blocks)
			wantOK = wantOK && !anyDenied(kv, wantNew)
			res, err := m.v.VerifyFile(1, imgFile, old, nil, kv)
			if (err == nil) != wantOK {
				t.Fatalf("seed %d round %d: verdict %v, reference accepts: %v", seed, round, err, wantOK)
			}
			if err != nil {
				rejected++
				continue
			}
			accepted, pages = accepted+1, pages+len(res.NewPages)+len(res.FreedPages)
			if !slices.Equal(res.NewPages, wantNew) || !slices.Equal(res.FreedPages, wantFreed) {
				t.Fatalf("seed %d round %d: pages new %v freed %v, want %v and %v", seed, round, res.NewPages, res.FreedPages, wantNew, wantFreed)
			}
			cold, err := m.v.ParseFile(imgFile)
			if v := res.View; err != nil || cold.Inode != v.Inode || !slices.Equal(cold.Blocks, v.Blocks) || !slices.Equal(cold.MapPages, v.MapPages) ||
				!slices.Equal(cold.blockSet, v.blockSet) || !slices.Equal(cold.mapSet, v.mapSet) {
				t.Fatalf("seed %d round %d: the view verified against a baseline differs from a cold parse (%v)\n got %+v\nwant %+v", seed, round, err, v, cold)
			}
			old = res.View
		}
	}
}

// damageFixture is the image TestStructuralRejections damages: a directory
// of 300 records, 200 of them live, on two tails of two log pages each, and
// a file of two map pages whose first two blocks are holes.
type damageFixture struct {
	*img
	tailset uint64
	tails   [2][]uint64
	recs    []rec
	maps    []uint64
	blocks  []uint64
}

func newDamageFixture(tb testing.TB) *damageFixture {
	f := newDamageDir(tb, 1024)
	f.maps = f.pages(2)
	f.blocks = make([]uint64, layout.MapEntriesPerPage+2) // two holes, then blocks into the second map page
	copy(f.blocks[2:], f.pages(layout.MapEntriesPerPage))
	f.writeFile(uint64(len(f.blocks))*layout.PageSize, f.maps, f.blocks)
	return f
}

// newDamageDir is the fixture's directory alone, on a device of pages
// pages.
func newDamageDir(tb testing.TB, pages int) *damageFixture {
	f := &damageFixture{img: newImg(tb, pages)}
	f.tailset = f.page()
	f.tails = [2][]uint64{f.pages(2), f.pages(2)}
	for i := 0; i < 300; i++ { // enough records for both pages of both tails
		f.recs = append(f.recs, rec{name: fmt.Sprintf("name-%04d", i), ino: 100 + uint64(i%200), dead: i >= 200})
	}
	f.writeDir(f.tailset, f.tails, f.recs)
	return f
}

// dirPages are the directory's pages: its tail set, then its log pages.
func (f *damageFixture) dirPages() []uint64 {
	return slices.Concat([]uint64{f.tailset}, f.tails[0], f.tails[1])
}

// dirDamages trip every structural check of a directory's parse, each by
// storing to one page of the fixture's directory.
var dirDamages = []struct {
	name   string
	damage func(f *damageFixture)
}{
	{"duplicate name", func(f *damageFixture) {
		f.writeDir(f.tailset, f.tails, append(f.recs, rec{name: f.recs[0].name, ino: 300}))
	}},
	{"double link", func(f *damageFixture) {
		f.writeDir(f.tailset, f.tails, append(f.recs, rec{name: "alias", ino: f.recs[0].ino}))
	}},
	{"log page linked twice", func(f *damageFixture) {
		layout.SetNextPage(f.dev, f.tails[1][1], f.tails[0][1])
	}},
	{"log chain cycle", func(f *damageFixture) {
		layout.SetNextPage(f.dev, f.tails[0][1], f.tails[0][0])
	}},
	{"log page out of range", func(f *damageFixture) {
		layout.SetNextPage(f.dev, f.tails[0][1], f.g.PageCount+7)
	}},
	{"log page below the data region", func(f *damageFixture) {
		layout.SetTailHead(f.dev, f.tailset, 1, f.g.DataStart-1)
	}},
	{"torn dentry", func(f *damageFixture) {
		f.dev.Zero(layout.MakeDentryRef(f.tails[0][0], 0).DevOff()+layout.DentryHeaderSize, 4)
	}},
	{"torn record length", func(f *damageFixture) {
		f.dev.Store16(layout.MakeDentryRef(f.tails[0][0], 0).DevOff()+8, 12)
	}},
}

// TestStructuralRejections trips every structural check of ParseDir and
// ParseFile, each on an image that parsed before the damage — cold, and
// again as a verification against the undamaged baseline, where the sets
// the check reads are built from the previous view.
func TestStructuralRejections(t *testing.T) {
	const per = layout.MapEntriesPerPage
	type damage struct {
		name   string
		file   bool
		damage func(f *damageFixture)
	}
	var damages []damage
	for _, d := range dirDamages {
		damages = append(damages, damage{d.name, false, d.damage})
	}
	for _, tc := range append(damages, []damage{
		{"map page out of range", true, func(f *damageFixture) {
			layout.SetNextPage(f.dev, f.maps[1], f.g.PageCount)
		}},
		{"map chain cycle", true, func(f *damageFixture) {
			layout.SetNextPage(f.dev, f.maps[1], f.maps[0])
		}},
		{"block referenced twice", true, func(f *damageFixture) {
			layout.SetMapEntry(f.dev, f.maps[1], 1, f.blocks[2])
		}},
		{"block that is also a map page", true, func(f *damageFixture) {
			layout.SetMapEntry(f.dev, f.maps[0], 5, f.maps[1])
		}},
		{"block out of range", true, func(f *damageFixture) {
			layout.SetMapEntry(f.dev, f.maps[0], 5, f.g.PageCount+1)
		}},
		{"pointer beyond size", true, func(f *damageFixture) {
			layout.SetMapEntry(f.dev, f.maps[1], per-1, f.page())
		}},
		{"chain too short", true, func(f *damageFixture) {
			in, _, _ := layout.ReadInode(f.dev, f.g, imgFile)
			in.Size = (2*per + 1) * layout.PageSize
			layout.WriteInode(f.dev, f.g, imgFile, &in)
		}},
		{"record of another format", true, func(f *damageFixture) {
			in, _, _ := layout.ReadInode(f.dev, f.g, imgFile)
			g := f.g
			g.FormatID++ // as a superblock whose ID moved would read it
			layout.WriteInode(f.dev, g, imgFile, &in)
		}},
	}...) {
		t.Run(tc.name, func(t *testing.T) {
			f := newDamageFixture(t)
			dv, err := f.v.ParseDir(imgDir)
			if err != nil {
				t.Fatal(err)
			}
			fv, err := f.v.ParseFile(imgFile)
			if err != nil {
				t.Fatal(err)
			}
			kv := f.kv()
			tc.damage(f)
			var cold, diff error
			if tc.file {
				_, cold = f.v.ParseFile(imgFile)
				_, diff = f.v.VerifyFile(1, imgFile, fv, nil, kv)
			} else {
				_, cold = f.v.ParseDir(imgDir)
				_, diff = f.v.VerifyDir(1, imgDir, dv, nil, kv)
			}
			var fe *FailError
			if cold == nil || !errors.As(diff, &fe) {
				t.Fatalf("cold parse: %v; verification against the baseline: %v; want both rejected", cold, diff)
			}
			// The undamaged half of the image still verifies, unchanged.
			if tc.file {
				if res, err := f.v.VerifyDir(1, imgDir, dv, nil, kv); err != nil || len(res.Changes)+len(res.NewPages)+len(res.FreedPages) != 0 {
					t.Fatalf("untouched directory: %v %+v", err, res)
				}
			} else if res, err := f.v.VerifyFile(1, imgFile, fv, nil, kv); err != nil || len(res.NewPages)+len(res.FreedPages) != 0 {
				t.Fatalf("untouched file: %v %+v", err, res)
			}
		})
	}
}

// FuzzVerifyDir stores an arbitrary page over one page of a verified
// directory — its tail set or a log page, which the store leaves dirty —
// and verifies the directory against its baseline, parsing into the view
// before the baseline as the kernel does. The verifier must return a
// result or a FailError, and must not panic; a rejection must leave the
// baseline as it was, since the kernel rolls back to it. The seeds are
// dirDamages, each as the one page it stores to.
func FuzzVerifyDir(f *testing.F) {
	const devPages = 64
	for _, d := range dirDamages {
		fx := newDamageDir(f, devPages)
		pages := fx.dirPages()
		was := make([][]byte, len(pages))
		for i, p := range pages {
			was[i] = bytes.Clone(fx.dev.Slice(int64(p)*layout.PageSize, layout.PageSize))
		}
		d.damage(fx)
		for i, p := range pages {
			if now := fx.dev.Slice(int64(p)*layout.PageSize, layout.PageSize); !bytes.Equal(now, was[i]) {
				f.Add(uint8(i), bytes.Clone(now))
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, page []byte) {
		fx := newDamageDir(t, devPages)
		kv := fx.kv()
		spare, err := fx.v.ParseDir(imgDir)
		if err != nil {
			t.Fatal(err)
		}
		// A first verification reads every page, and leaves them clean.
		res, err := fx.v.VerifyDir(1, imgDir, spare, nil, kv)
		if err != nil {
			t.Fatal(err)
		}
		base := res.View
		pages := fx.dirPages()
		fx.dev.Write(int64(pages[int(which)%len(pages)])*layout.PageSize, page[:min(len(page), layout.PageSize)])
		before := cloneDirView(base)
		if _, err := fx.v.VerifyDir(1, imgDir, base, spare, kv); err != nil {
			var fe *FailError
			if !errors.As(err, &fe) {
				t.Fatalf("a verification error that is not a FailError: %v", err)
			}
			if !reflect.DeepEqual(base, before) {
				t.Fatalf("the rejection (%v) changed the baseline view", err)
			}
		}
	})
}

// cloneDirView copies dv and every slice it holds.
func cloneDirView(dv *DirView) *DirView {
	c := *dv
	c.Entries = slices.Clone(dv.Entries)
	c.Pages = slices.Clone(dv.Pages)
	c.heads = slices.Clone(dv.heads)
	c.byPage = slices.Clone(dv.byPage)
	return &c
}

// TestChainCycleCostsTheCycle: a looping log or map chain is rejected after
// a walk of about the loop's own length, on a geometry so large that a walk
// bounded by the device's page count would never return.
func TestChainCycleCostsTheCycle(t *testing.T) {
	for _, loop := range []int{1, 2, 3, 7, 64} {
		m := newImg(t, 256)
		m.v.Geo.PageCount = 1 << 40
		const lead = 5 // pages ahead of the loop
		maps, log := m.pages(lead+loop), m.pages(lead+loop)
		m.writeFile(0, maps, nil)
		m.writeDir(m.page(), [2][]uint64{m.pages(1), log}, nil)
		layout.SetNextPage(m.dev, maps[lead+loop-1], maps[lead])
		layout.SetNextPage(m.dev, log[lead+loop-1], log[lead])
		if _, err := m.v.ParseFile(imgFile); err == nil || !strings.Contains(err.Error(), "map chain cycle") {
			t.Errorf("map chain looping over %d pages: %v", loop, err)
		}
		if _, err := m.v.ParseDir(imgDir); err == nil || !strings.Contains(err.Error(), "log chain cycle") {
			t.Errorf("log chain looping over %d pages: %v", loop, err)
		}
	}
}

// TestVerifyAllocatesForTheChange pins the allocation count of a
// verification whose baseline is the previous view, parsed into the view
// before that as the kernel does: a small constant for one changed block
// or one added name, whatever the size of the inode — for a file the new
// block array and the lists of what came and went, for a directory the
// lists of what changed (its entry list goes into the spare view's). A directory's work is pinned
// too: adding a name reads the one log page it dirtied, that page's
// records and no other, at any size.
func TestVerifyAllocatesForTheChange(t *testing.T) {
	fileAllocs := func(blocks int) float64 {
		b := newFileBench(t, blocks)
		return testing.AllocsPerRun(20, b.step)
	}
	dirAllocs := func(names int) float64 {
		b := newDirBench(t, names)
		allocs := testing.AllocsPerRun(20, b.step)
		before := work(b.v)
		b.step()
		var recs int64
		layout.ScanPage(b.dev, b.spare.Page(), make([]byte, layout.MaxName), func(layout.RawDentry) bool { recs++; return true })
		w := work(b.v).minus(before)
		t.Logf("VerifyDir, one name added or removed among %d: %+v, %d records on the spare's page", names, w, recs)
		if w.pages != 1 || w.dentries != recs {
			t.Errorf("VerifyDir at %d names scanned %d records on %d pages, want the %d records of the changed name's page alone", names, w.dentries, w.pages, recs)
		}
		return allocs
	}
	small, large := fileAllocs(512), fileAllocs(16384)
	t.Logf("VerifyFile, one changed block: %.0f allocs at 512 blocks, %.0f at 16384", small, large)
	if large > small || large > 7 {
		t.Errorf("VerifyFile allocations grow with the file: %.0f at 512 blocks, %.0f at 16384 (want a constant, at most 7)", small, large)
	}
	small, large = dirAllocs(256), dirAllocs(4096)
	t.Logf("VerifyDir, one name added or removed: %.0f allocs at 256 names, %.0f at 4096", small, large)
	if large > small || large > 5 {
		t.Errorf("VerifyDir allocations grow with the directory: %.0f at 256 names, %.0f at 4096 (want a constant, at most 5)", small, large)
	}
}

// TestParseIntoSpareSharingPrevEntries: a parse into a spare view whose
// Entries are prev's array — what a spare holds after a verification found
// the directory unchanged — makes the view a parse into a new one makes,
// and leaves prev as it was. A spare whose entries are its own lends the
// parse their storage.
func TestParseIntoSpareSharingPrevEntries(t *testing.T) {
	m := newImg(t, 64)
	tailset, tails := m.page(), [2][]uint64{m.pages(2), m.pages(2)}
	recs := make([]rec, 80)
	for i := range recs {
		recs[i] = rec{name: fmt.Sprintf("n%03d", i), ino: 100 + uint64(i)}
	}
	m.writeDir(tailset, tails, recs)
	prev, err := m.v.ParseDir(imgDir)
	if err != nil {
		t.Fatal(err)
	}
	// A name removed, one added, and one relinked to another inode.
	recs[3].dead = true
	recs[40].ino = 900
	m.rewriteDir(tailset, tails, append(recs, rec{name: "added", ino: 901}))
	before := cloneDirView(prev)
	want, wantWas, wantNow, err := m.v.parseDir(imgDir, prev, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := func(got *DirView) string {
		switch {
		case got.Inode != want.Inode || got.Records != want.Records:
			return "inode record or record count"
		case !slices.Equal(got.Entries, want.Entries):
			return "entries"
		case !slices.Equal(got.Pages, want.Pages) || !slices.Equal(got.byPage, want.byPage) || !slices.Equal(got.heads, want.heads):
			return "pages"
		}
		return ""
	}
	for _, c := range []struct {
		name  string
		spare *DirView
		own   bool // the spare's entries are its own storage
	}{
		{"sharing prev's entries", &DirView{Entries: prev.Entries, Pages: slices.Clone(prev.Pages)}, false},
		{"with entries of its own", &DirView{Entries: make([]DirEntry, 3, 2*len(prev.Entries))}, true},
	} {
		storage := c.spare.Entries[:1]
		got, was, now, err := m.v.parseDir(imgDir, prev, c.spare, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := same(got); d != "" || got != c.spare || !slices.Equal(was, wantWas) || !slices.Equal(now, wantNow) {
			t.Errorf("%s: the parse differs from one into a new view in its %s (into the spare %v; changes equal %v)",
				c.name, d, got == c.spare, slices.Equal(was, wantWas) && slices.Equal(now, wantNow))
		}
		if !reflect.DeepEqual(prev, before) {
			t.Fatalf("%s: the parse changed prev", c.name)
		}
		if shared := &got.Entries[0] == &storage[0]; shared != c.own {
			t.Errorf("%s: the entries are in the spare's storage: %v, want %v", c.name, shared, c.own)
		}
	}
}
