package libfs

import "sync/atomic"

// inodeTable is the LibFS's inode table: the minode of every inode it has
// built, indexed by inode number. It is two levels, as a page table is: a
// top array of leaf pointers, one per inodeLeafSlots numbers below the
// device's inode capacity, made by the first store, and leaves of minode
// slots, each made by the first store into its range and kept. A Load is
// three atomic loads — top, leaf, slot — and boxes nothing; a store into a
// leaf that exists allocates nothing. Every operation is safe beside every
// other.
type inodeTable struct {
	cap uint64 // inode numbers are below cap
	top atomic.Pointer[[]atomic.Pointer[inodeLeaf]]
}

// inodeLeafSlots is how many inode numbers one leaf covers.
const inodeLeafSlots = 256

type inodeLeaf [inodeLeafSlots]atomic.Pointer[minode]

// Load returns ino's minode, nil if the table has none.
func (it *inodeTable) Load(ino uint64) *minode {
	if s := it.find(ino); s != nil {
		return s.Load()
	}
	return nil
}

// Store makes mi ino's minode.
func (it *inodeTable) Store(ino uint64, mi *minode) { it.slot(ino).Store(mi) }

// LoadOrStore returns ino's minode, storing mi first if there is none.
func (it *inodeTable) LoadOrStore(ino uint64, mi *minode) *minode {
	s := it.slot(ino)
	for {
		if s.CompareAndSwap(nil, mi) {
			return mi
		}
		if cur := s.Load(); cur != nil {
			return cur
		}
	}
}

// LoadAndDelete removes ino's minode and returns it, nil if there was none.
func (it *inodeTable) LoadAndDelete(ino uint64) *minode {
	if s := it.find(ino); s != nil {
		return s.Swap(nil)
	}
	return nil
}

// Delete removes ino's minode.
func (it *inodeTable) Delete(ino uint64) { it.LoadAndDelete(ino) }

// Range calls fn on every minode in inode-number order until fn returns
// false. A minode stored or deleted while Range runs may be seen or not;
// one present throughout is seen.
func (it *inodeTable) Range(fn func(*minode) bool) {
	top := it.top.Load()
	if top == nil {
		return
	}
	for i := range *top {
		leaf := (*top)[i].Load()
		if leaf == nil {
			continue
		}
		for j := range leaf {
			if mi := leaf[j].Load(); mi != nil && !fn(mi) {
				return
			}
		}
	}
}

// find returns ino's slot, nil if its leaf was never made.
func (it *inodeTable) find(ino uint64) *atomic.Pointer[minode] {
	top := it.top.Load()
	if top == nil || ino >= it.cap {
		return nil
	}
	if leaf := (*top)[ino/inodeLeafSlots].Load(); leaf != nil {
		return &leaf[ino%inodeLeafSlots]
	}
	return nil
}

// slot returns ino's slot, making the top array and ino's leaf if they do
// not exist yet. ino must be below the capacity.
func (it *inodeTable) slot(ino uint64) *atomic.Pointer[minode] {
	top := it.top.Load()
	if top == nil {
		leaves := make([]atomic.Pointer[inodeLeaf], (it.cap+inodeLeafSlots-1)/inodeLeafSlots)
		if it.top.CompareAndSwap(nil, &leaves) {
			top = &leaves
		} else {
			top = it.top.Load()
		}
	}
	lp := &(*top)[ino/inodeLeafSlots]
	leaf := lp.Load()
	if leaf == nil {
		leaf = new(inodeLeaf)
		if !lp.CompareAndSwap(nil, leaf) {
			leaf = lp.Load()
		}
	}
	return &leaf[ino%inodeLeafSlots]
}
