package verifier

import (
	"fmt"
	"sort"

	"arckfs/internal/layout"
)

// Verification results feed kernel-side frees, grants, and shadow writes,
// so their order must not depend on Go map iteration: a nondeterministic
// persist schedule would make crash-state enumeration (crashmc) flaky.
// sortedEntryNames and sortedPageSet pin the iteration orders.
func sortedEntryNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func sortedPageSet(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ChildAction classifies a verified change to a directory's children.
type ChildAction int

const (
	// AddNew links a freshly granted inode: it becomes a pending child
	// (LibFS Rule 1: it must be committed separately, and only counts as
	// connected once this verification passes).
	AddNew ChildAction = iota
	// RelocateIn links an existing committed inode renamed in from
	// another directory (§4.1 patch): the kernel advances the child's
	// shadow parent pointer.
	RelocateIn
	// RemoveFile unlinks a regular file; the kernel frees its inode and
	// pages.
	RemoveFile
	// RemoveEmptyDir removes a directory with no verified children.
	RemoveEmptyDir
	// RenamedAway explains a missing child whose shadow parent already
	// points elsewhere: nothing to do (the relocation was verified when
	// the new parent committed).
	RenamedAway
)

// ChildChange is one verified delta to a directory's entry set.
type ChildChange struct {
	Name   string
	Ino    uint64
	Action ChildAction
}

// DirOld is the kernel's snapshot of a directory's verified entry set and
// page set, taken when the inode was acquired (or last committed).
type DirOld struct {
	Entries map[string]uint64
	Pages   map[uint64]bool
}

// DirResult is the outcome of a successful directory verification.
type DirResult struct {
	Changes    []ChildChange
	NewPages   []uint64
	FreedPages []uint64
	// Size/MTime pass through to the shadow record.
	Inode layout.Inode
	View  *DirView
}

// FailError marks a verification rejection (as opposed to an internal
// error); the kernel applies its corruption policy on it.
type FailError struct {
	Ino    uint64
	Reason string
}

func (e *FailError) Error() string {
	return fmt.Sprintf("verification of inode %d failed: %s", e.Ino, e.Reason)
}

func fail(ino uint64, format string, args ...any) error {
	return &FailError{Ino: ino, Reason: fmt.Sprintf(format, args...)}
}

// VerifyDir checks directory ino as released (or committed) by app
// against the snapshot old and the kernel's shadow state.
func (v *V) VerifyDir(app int64, ino uint64, old *DirOld, kv KernelView) (*DirResult, error) {
	sh, ok := kv.Shadow(ino)
	if !ok {
		return nil, fail(ino, "no shadow record")
	}
	dv, err := v.ParseDir(ino)
	if err != nil {
		return nil, fail(ino, "structural: %v", err)
	}
	in := dv.Inode
	// Immutable attributes: a LibFS may change size and times, nothing
	// else.
	if in.Perm != sh.Perm || in.UID != sh.UID || in.GID != sh.GID {
		return nil, fail(ino, "permission or ownership fields changed")
	}
	if in.DataRoot != sh.DataRoot || in.NTails != sh.NTails {
		return nil, fail(ino, "directory structure fields changed")
	}
	if in.Parent != sh.Parent {
		return nil, fail(ino, "parent pointer changed by LibFS")
	}

	res := &DirResult{Inode: in, View: dv}

	// Inodes that gained an entry in this directory: a "removal" of one
	// of these under another name is a rename within the directory, not
	// a deletion.
	addedInos := map[uint64]bool{}
	for name, d := range dv.Entries {
		if oldIno, existed := old.Entries[name]; !existed || oldIno != d.Ino {
			addedInos[d.Ino] = true
		}
	}

	// Additions and replacements.
	for _, name := range sortedEntryNames(dv.Entries) {
		d := dv.Entries[name]
		oldIno, existed := old.Entries[name]
		if existed && oldIno == d.Ino {
			continue
		}
		if existed && !addedInos[oldIno] {
			// Same name now points at a different inode: verify the
			// removal of the old target too.
			if err := v.verifyRemoval(app, ino, name, oldIno, kv, res); err != nil {
				return nil, err
			}
		}
		if kv.InodeGrantedTo(app, d.Ino) {
			// A freshly created inode: its record must at least decode
			// and claim this directory as its parent; its contents are
			// verified at its own commit (LibFS Rule 1).
			cin, cok, ccorrupt := layout.ReadInode(v.Dev, v.Geo, d.Ino)
			if ccorrupt || !cok {
				return nil, fail(ino, "entry %q links invalid new inode %d", name, d.Ino)
			}
			if cin.Parent != ino {
				return nil, fail(ino, "new inode %d claims parent %d, linked under %d", d.Ino, cin.Parent, ino)
			}
			if cin.Type != layout.TypeFile && cin.Type != layout.TypeDir {
				return nil, fail(ino, "new inode %d has unknown type %d", d.Ino, cin.Type)
			}
			res.Changes = append(res.Changes, ChildChange{Name: name, Ino: d.Ino, Action: AddNew})
			continue
		}
		csh, cok := kv.Shadow(d.Ino)
		if !cok || !csh.Committed {
			return nil, fail(ino, "entry %q links unknown inode %d", name, d.Ino)
		}
		// An existing committed inode appearing here is a relocation.
		if v.Mode == Enhanced {
			if csh.Parent == ino {
				// Re-link under the same parent (rename within dir was
				// handled as remove+add of the same ino). Accept.
				res.Changes = append(res.Changes, ChildChange{Name: name, Ino: d.Ino, Action: RelocateIn})
				continue
			}
			if !kv.OwnedBy(app, csh.Parent) {
				return nil, fail(ino, "relocation of inode %d: old parent %d not held by releasing LibFS", d.Ino, csh.Parent)
			}
			if kv.IsDescendant(ino, d.Ino) {
				return nil, fail(ino, "relocation of inode %d would create a cycle", d.Ino)
			}
			if csh.Type == layout.TypeDir && !kv.HoldsRenameLock(app) {
				return nil, fail(ino, "directory relocation of inode %d without the global rename lock", d.Ino)
			}
			res.Changes = append(res.Changes, ChildChange{Name: name, Ino: d.Ino, Action: RelocateIn})
		} else {
			// Original verifier: accepts the new link with no relocation
			// protocol — one half of the §4.1 bug.
			res.Changes = append(res.Changes, ChildChange{Name: name, Ino: d.Ino, Action: RelocateIn})
		}
	}

	// Removals.
	for _, name := range sortedEntryNames(old.Entries) {
		oldIno := old.Entries[name]
		if d, still := dv.Entries[name]; still && d.Ino == oldIno {
			continue
		}
		if _, replaced := dv.Entries[name]; replaced {
			continue // handled above as a replacement
		}
		if addedInos[oldIno] {
			continue // renamed within this directory
		}
		if err := v.verifyRemoval(app, ino, name, oldIno, kv, res); err != nil {
			return nil, err
		}
	}

	// Page accounting: every page newly linked into the log must be
	// usable by this app; pages no longer linked are reclaimed.
	cur := map[uint64]bool{}
	for _, p := range dv.Pages {
		cur[p] = true
		if !old.Pages[p] {
			if !kv.PageUsableBy(app, ino, p) {
				return nil, fail(ino, "log page %d not granted to the releasing LibFS", p)
			}
			res.NewPages = append(res.NewPages, p)
		}
	}
	for _, p := range sortedPageSet(old.Pages) {
		if !cur[p] {
			res.FreedPages = append(res.FreedPages, p)
		}
	}
	return res, nil
}

func (v *V) verifyRemoval(app int64, dirIno uint64, name string, childIno uint64, kv KernelView, res *DirResult) error {
	csh, ok := kv.Shadow(childIno)
	if !ok {
		// Shadow already gone (e.g. freed by a previous commit of this
		// directory); nothing to verify.
		return nil
	}
	if kv.OwnedByOther(app, childIno) {
		return fail(dirIno, "entry %q: inode %d is held by another application", name, childIno)
	}
	if csh.Type == layout.TypeFile {
		if csh.Parent != dirIno {
			// The file's verified parent moved: a completed
			// cross-directory file rename (MWRM-style), not a deletion.
			res.Changes = append(res.Changes, ChildChange{Name: name, Ino: childIno, Action: RenamedAway})
			return nil
		}
		res.Changes = append(res.Changes, ChildChange{Name: name, Ino: childIno, Action: RemoveFile})
		return nil
	}
	// Directory child.
	if v.Mode == Enhanced && csh.Parent != dirIno {
		// The §4.1 patch: the child's verified parent pointer moved, so
		// this is the old-parent side of a completed relocation, not a
		// deletion. The Original verifier has no parent pointers for
		// directories and falls through to the I3 check below — the
		// §4.1 bug.
		res.Changes = append(res.Changes, ChildChange{Name: name, Ino: childIno, Action: RenamedAway})
		return nil
	}
	if csh.ChildCount > 0 {
		// Invariant I3: the hierarchy must remain a connected tree, so
		// deleting a non-empty directory is rejected. In Original mode
		// this is exactly where a legitimate relocation fails (§3.1
		// step 4).
		return fail(dirIno, "entry %q: deletion of non-empty directory %d violates I3", name, childIno)
	}
	res.Changes = append(res.Changes, ChildChange{Name: name, Ino: childIno, Action: RemoveEmptyDir})
	return nil
}

// FileOld is the kernel's acquire-time snapshot of a file's verified
// block set.
type FileOld struct {
	Blocks   map[uint64]bool // data blocks (nonzero only)
	MapPages map[uint64]bool
	Size     uint64
}

// FileResult is the outcome of a successful file verification.
type FileResult struct {
	NewPages   []uint64
	FreedPages []uint64
	Inode      layout.Inode
	View       *FileView
}

// VerifyFile checks regular file ino as released by app.
func (v *V) VerifyFile(app int64, ino uint64, old *FileOld, kv KernelView) (*FileResult, error) {
	sh, ok := kv.Shadow(ino)
	if !ok {
		return nil, fail(ino, "no shadow record")
	}
	fv, err := v.ParseFile(ino)
	if err != nil {
		return nil, fail(ino, "structural: %v", err)
	}
	in := fv.Inode
	if in.Perm != sh.Perm || in.UID != sh.UID || in.GID != sh.GID {
		return nil, fail(ino, "permission or ownership fields changed")
	}
	if in.Parent != sh.Parent {
		return nil, fail(ino, "parent pointer changed by LibFS")
	}
	res := &FileResult{Inode: in, View: fv}
	cur := map[uint64]bool{}
	for _, p := range fv.MapPages {
		cur[p] = true
		if !old.MapPages[p] {
			if !kv.PageUsableBy(app, ino, p) {
				return nil, fail(ino, "map page %d not granted to the releasing LibFS", p)
			}
			res.NewPages = append(res.NewPages, p)
		}
	}
	for _, b := range fv.Blocks {
		if b == 0 {
			continue
		}
		cur[b] = true
		if !old.Blocks[b] && !old.MapPages[b] {
			if !kv.PageUsableBy(app, ino, b) {
				return nil, fail(ino, "data block %d not granted to the releasing LibFS", b)
			}
			res.NewPages = append(res.NewPages, b)
		}
	}
	for _, p := range sortedPageSet(old.MapPages) {
		if !cur[p] {
			res.FreedPages = append(res.FreedPages, p)
		}
	}
	for _, b := range sortedPageSet(old.Blocks) {
		if !cur[b] {
			res.FreedPages = append(res.FreedPages, b)
		}
	}
	return res, nil
}

// NewInodeResult describes a verified newly created inode (LibFS Rule 1
// commit).
type NewInodeResult struct {
	Inode layout.Inode
	// Pages the inode's structure uses (tail-set + log pages for a
	// directory, map pages + blocks for a file).
	Pages []uint64
	// PendingChildren are entries inside a new directory that reference
	// other granted inodes: they become pending in turn.
	PendingChildren []ChildChange
	ChildCount      uint32
	// Dir or File (by inode type) is the parsed view the verdict was
	// reached on.
	Dir  *DirView
	File *FileView
}

// VerifyNewInode checks a freshly created inode at commit time. parent is
// the verified parent recorded when the parent directory's verification
// accepted the AddNew entry.
func (v *V) VerifyNewInode(app int64, ino, parent uint64, kv KernelView) (*NewInodeResult, error) {
	in, ok, corrupt := layout.ReadInode(v.Dev, v.Geo, ino)
	if corrupt {
		return nil, fail(ino, "corrupt inode record")
	}
	if !ok {
		return nil, fail(ino, "free inode record")
	}
	if in.Parent != parent {
		return nil, fail(ino, "inode parent %d disagrees with verified dentry parent %d", in.Parent, parent)
	}
	res := &NewInodeResult{Inode: in}
	switch in.Type {
	case layout.TypeFile:
		fv, err := v.ParseFile(ino)
		if err != nil {
			return nil, fail(ino, "structural: %v", err)
		}
		res.File = fv
		for _, p := range fv.MapPages {
			if !kv.PageUsableBy(app, ino, p) {
				return nil, fail(ino, "map page %d not granted", p)
			}
			res.Pages = append(res.Pages, p)
		}
		for _, b := range fv.Blocks {
			if b == 0 {
				continue
			}
			if !kv.PageUsableBy(app, ino, b) {
				return nil, fail(ino, "data block %d not granted", b)
			}
			res.Pages = append(res.Pages, b)
		}
	case layout.TypeDir:
		dv, err := v.ParseDir(ino)
		if err != nil {
			return nil, fail(ino, "structural: %v", err)
		}
		res.Dir = dv
		if in.DataRoot < v.Geo.DataStart || !kv.PageUsableBy(app, ino, in.DataRoot) {
			return nil, fail(ino, "tail-set page %d not granted", in.DataRoot)
		}
		res.Pages = append(res.Pages, in.DataRoot)
		for _, p := range dv.Pages {
			if !kv.PageUsableBy(app, ino, p) {
				return nil, fail(ino, "log page %d not granted", p)
			}
			res.Pages = append(res.Pages, p)
		}
		for _, name := range sortedEntryNames(dv.Entries) {
			d := dv.Entries[name]
			if !kv.InodeGrantedTo(app, d.Ino) {
				return nil, fail(ino, "entry %q links inode %d not granted to the LibFS", name, d.Ino)
			}
			res.PendingChildren = append(res.PendingChildren, ChildChange{Name: name, Ino: d.Ino, Action: AddNew})
		}
		res.ChildCount = uint32(len(dv.Entries))
	default:
		return nil, fail(ino, "unknown inode type %d", in.Type)
	}
	return res, nil
}
