package workload

import (
	"encoding/binary"
	"math/rand"
)

const blockSize = 4096

// gen is the seeded source of one worker's op sequence. Everything the file
// system sees — names, offsets, op choices, block contents — derives from
// the seed through it; hash folds every generated op so two runs can prove
// they issued the same sequence.
type gen struct {
	rng  *rand.Rand
	hash uint64
	// pattern backs every data block and value: the content for tag g is
	// the tag itself followed by pattern bytes starting at g%blockSize.
	pattern []byte
}

func newGen(seed int64) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed)), hash: 14695981039346656037}
	g.pattern = make([]byte, 2*blockSize)
	g.rng.Read(g.pattern)
	return g
}

// mix folds one op (kind and integer arguments) into the sequence hash.
func (g *gen) mix(kind int32, a, b uint64) {
	h := g.hash
	h = (h ^ uint64(kind)) * 1099511628211
	h = (h ^ a) * 1099511628211
	h = (h ^ b) * 1099511628211
	g.hash = h
}

// fill writes the content for tag into p (len(p) >= 8).
func (g *gen) fill(p []byte, tag uint64) {
	binary.LittleEndian.PutUint64(p, tag)
	copy(p[8:], g.pattern[tag%blockSize:])
}

// matches reports whether p holds the content for tag.
func (g *gen) matches(p []byte, tag uint64) bool {
	if binary.LittleEndian.Uint64(p) != tag {
		return false
	}
	want := g.pattern[tag%blockSize:]
	for i, c := range p[8:] {
		if c != want[i] {
			return false
		}
	}
	return true
}

const nameAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// names returns n distinct seeded names of 6 to 20 characters, each
// starting with prefix. Lengths vary so that dentry sizes, and with them
// the bytes a metadata op persists, depend on the seed.
func (g *gen) names(prefix string, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		b := make([]byte, 6+g.rng.Intn(15))
		for i := range b {
			b[i] = nameAlphabet[g.rng.Intn(len(nameAlphabet))]
		}
		name := prefix + string(b)
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}
