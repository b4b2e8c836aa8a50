package verifier

import (
	"fmt"
	"slices"

	"arckfs/internal/layout"
)

// Verification results feed kernel-side frees, grants, and shadow writes,
// so their order is part of the persist contract: a different order is a
// different persist schedule, and crash-state enumeration (crashmc) pins
// it. Changes run in name order, additions before removals; NewPages in
// chain and block-map order; FreedPages in ascending page order, metadata
// pages first. The views keep names and pages sorted, so the diffs below
// produce these orders by construction.

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
// against old, the view its last verification (or its acquire) produced,
// and the kernel's shadow state. It reads only the pages of the directory
// that kv.CleanPage does not report clean, and those old does not hold;
// every other page it takes from old.
func (v *V) VerifyDir(app int64, ino uint64, old *DirView, kv KernelView) (*DirResult, error) {
	sh, ok := kv.Shadow(ino)
	if !ok {
		return nil, fail(ino, "no shadow record")
	}
	// was holds the old side of every name that changed, now the new side.
	dv, was, now, err := v.parseDir(ino, old, kv)
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
	addedInos := make([]uint64, len(now))
	for i, e := range now {
		addedInos[i] = e.Ino
	}
	slices.Sort(addedInos)

	// Additions and replacements.
	for _, e := range now {
		name := e.Name
		if i, replaced := searchName(was, name); replaced && !contains(addedInos, was[i].Ino) {
			// Same name now points at a different inode: verify the
			// removal of the old target too.
			if err := v.verifyRemoval(app, ino, name, was[i].Ino, kv, res); err != nil {
				return nil, err
			}
		}
		if kv.InodeGrantedTo(app, e.Ino) {
			// A freshly created inode: its record must at least decode
			// and claim this directory as its parent; its contents are
			// verified at its own commit (LibFS Rule 1).
			cin, cok, ccorrupt := layout.ReadInode(v.Dev, v.Geo, e.Ino)
			if ccorrupt || !cok {
				return nil, fail(ino, "entry %q links invalid new inode %d", name, e.Ino)
			}
			if cin.Parent != ino {
				return nil, fail(ino, "new inode %d claims parent %d, linked under %d", e.Ino, cin.Parent, ino)
			}
			if cin.Type != layout.TypeFile && cin.Type != layout.TypeDir {
				return nil, fail(ino, "new inode %d has unknown type %d", e.Ino, cin.Type)
			}
			res.Changes = append(res.Changes, ChildChange{Name: name, Ino: e.Ino, Action: AddNew})
			continue
		}
		csh, cok := kv.Shadow(e.Ino)
		if !cok || !csh.Committed {
			return nil, fail(ino, "entry %q links unknown inode %d", name, e.Ino)
		}
		// An existing committed inode appearing here is a relocation. The
		// Original verifier accepts the new link with no relocation
		// protocol — one half of the §4.1 bug. A re-link under the same
		// parent is a rename within the directory (remove + add of the
		// same inode).
		if v.Mode == Enhanced && csh.Parent != ino {
			if !kv.OwnedBy(app, csh.Parent) {
				return nil, fail(ino, "relocation of inode %d: old parent %d not held by releasing LibFS", e.Ino, csh.Parent)
			}
			if kv.IsDescendant(ino, e.Ino) {
				return nil, fail(ino, "relocation of inode %d would create a cycle", e.Ino)
			}
			if csh.Type == layout.TypeDir && !kv.HoldsRenameLock(app) {
				return nil, fail(ino, "directory relocation of inode %d without the global rename lock", e.Ino)
			}
		}
		res.Changes = append(res.Changes, ChildChange{Name: name, Ino: e.Ino, Action: RelocateIn})
	}

	// Removals: names that are gone, not replaced (handled above) and not
	// renamed within this directory.
	for _, e := range was {
		if _, replaced := searchName(now, e.Name); replaced || contains(addedInos, e.Ino) {
			continue
		}
		if err := v.verifyRemoval(app, ino, e.Name, e.Ino, kv, res); err != nil {
			return nil, err
		}
	}

	// Page accounting: every page newly linked into the log must be
	// usable by this app; pages no longer linked are reclaimed.
	for _, p := range dv.Pages {
		if !old.hasPage(p) {
			if !kv.PageUsableBy(app, ino, p) {
				return nil, fail(ino, "log page %d not granted to the releasing LibFS", p)
			}
			res.NewPages = append(res.NewPages, p)
		}
	}
	for _, lp := range old.byPage {
		if !dv.hasPage(lp.no) {
			res.FreedPages = append(res.FreedPages, lp.no)
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

// FileResult is the outcome of a successful file verification.
type FileResult struct {
	NewPages   []uint64
	FreedPages []uint64
	Inode      layout.Inode
	View       *FileView
}

// VerifyFile checks regular file ino as released by app against old, the
// view its last verification (or its acquire) produced.
func (v *V) VerifyFile(app int64, ino uint64, old *FileView, kv KernelView) (*FileResult, error) {
	sh, ok := kv.Shadow(ino)
	if !ok {
		return nil, fail(ino, "no shadow record")
	}
	fv, came, gone, err := v.parseFile(ino, old)
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
	for _, p := range fv.MapPages {
		if !contains(old.mapSet, p) {
			if !kv.PageUsableBy(app, ino, p) {
				return nil, fail(ino, "map page %d not granted to the releasing LibFS", p)
			}
			res.NewPages = append(res.NewPages, p)
		}
	}
	for _, b := range came {
		if !contains(old.blockSet, b) && !contains(old.mapSet, b) {
			if !kv.PageUsableBy(app, ino, b) {
				return nil, fail(ino, "data block %d not granted to the releasing LibFS", b)
			}
			res.NewPages = append(res.NewPages, b)
		}
	}
	for _, p := range old.mapSet {
		if !contains(fv.mapSet, p) && !contains(fv.blockSet, p) {
			res.FreedPages = append(res.FreedPages, p)
		}
	}
	for _, b := range gone {
		if !contains(fv.blockSet, b) && !contains(fv.mapSet, b) {
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
		for _, e := range dv.Entries {
			if !kv.InodeGrantedTo(app, e.Ino) {
				return nil, fail(ino, "entry %q links inode %d not granted to the LibFS", e.Name, e.Ino)
			}
			res.PendingChildren = append(res.PendingChildren, ChildChange{Name: e.Name, Ino: e.Ino, Action: AddNew})
		}
		res.ChildCount = uint32(len(dv.Entries))
	default:
		return nil, fail(ino, "unknown inode type %d", in.Type)
	}
	return res, nil
}
