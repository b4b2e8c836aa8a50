package kv

import (
	"bytes"
	"math/rand"
)

// memtable is a skiplist-backed sorted in-memory buffer, the structure
// LevelDB uses. Tombstones are entries with nil values and del set.
// Keys, values, nodes and links are cut from the memtable's arena, so a
// put allocates only when a chunk or slab runs out.
type memtable struct {
	head    *skipNode
	maxLvl  int
	rng     *rand.Rand
	size    int // approximate bytes
	entries int
	update  [skipMaxLevel]*skipNode // put's search path
	arena   arena
}

type skipNode struct {
	key  []byte
	val  []byte
	del  bool
	next []*skipNode
}

const skipMaxLevel = 12

// arena hands out the memory of one memtable, as LevelDB's Arena does. It
// is append-only and never reset or reused: an Iterator may still hold
// its slices after the memtable is flushed, so the garbage collector frees
// it with the last of them.
type arena struct {
	chunk []byte      // unused tail of the current chunk
	nodes []skipNode  // unused nodes of the current slab
	links []*skipNode // unused next links of the current slab
}

const (
	arenaChunk = 64 << 10 // bytes per key and value chunk
	nodeSlab   = 512      // nodes per slab
	linkSlab   = 1024     // next links per slab; a node takes 4/3 on average
)

// clone copies b into the arena. A slice over a quarter of a chunk gets an
// allocation of its own, as in LevelDB's AllocateFallback, so that a large
// value does not strand the rest of a chunk.
func (a *arena) clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if len(b) > len(a.chunk) {
		if len(b) > arenaChunk/4 {
			return bytes.Clone(b)
		}
		a.chunk = make([]byte, arenaChunk)
	}
	n := copy(a.chunk, b)
	out := a.chunk[:n:n]
	a.chunk = a.chunk[n:]
	return out
}

// node returns a zeroed node with lvl next links.
func (a *arena) node(lvl int) *skipNode {
	if len(a.nodes) == 0 {
		a.nodes = make([]skipNode, nodeSlab)
	}
	if len(a.links) < lvl {
		a.links = make([]*skipNode, linkSlab)
	}
	n := &a.nodes[0]
	a.nodes = a.nodes[1:]
	n.next = a.links[:lvl:lvl]
	a.links = a.links[lvl:]
	return n
}

func newMemtable() *memtable {
	return &memtable{
		head:   &skipNode{next: make([]*skipNode, skipMaxLevel)},
		maxLvl: 1,
		rng:    rand.New(rand.NewSource(42)),
	}
}

func (m *memtable) randomLevel() int {
	lvl := 1
	for lvl < skipMaxLevel && m.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// put inserts or overwrites key with copies of key and val.
func (m *memtable) put(key, val []byte, del bool) {
	update := &m.update
	x := m.head
	for i := m.maxLvl - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		m.size += len(val) - len(n.val)
		n.val = m.arena.clone(val)
		n.del = del
		return
	}
	lvl := m.randomLevel()
	if lvl > m.maxLvl {
		for i := m.maxLvl; i < lvl; i++ {
			update[i] = m.head
		}
		m.maxLvl = lvl
	}
	n := m.arena.node(lvl)
	n.key, n.val, n.del = m.arena.clone(key), m.arena.clone(val), del
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	m.size += len(key) + len(val) + 32
	m.entries++
}

// get returns (value, tombstone, found).
func (m *memtable) get(key []byte) ([]byte, bool, bool) {
	x := m.head
	for i := m.maxLvl - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		return n.val, n.del, true
	}
	return nil, false, false
}

// iter walks entries in key order.
func (m *memtable) iter(fn func(key, val []byte, del bool) bool) {
	for n := m.head.next[0]; n != nil; n = n.next[0] {
		if !fn(n.key, n.val, n.del) {
			return
		}
	}
}
