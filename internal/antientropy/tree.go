// Package antientropy provides the incrementally-maintained hash tree
// behind the ae.tree anti-entropy walk: instead of exchanging every key's
// hash, two replicas compare roots and descend only into the subtrees
// that differ, so the exchange costs O(divergence · depth) rather than
// O(keyspace).
//
// The tree has a fixed geometry over XOR-folded leaf buckets. Leaves are
// updated in place at state install time (the per-key fold is
// commutative and self-inverse, so an install XORs the old contribution
// out and the new one in), and the interior levels are re-derived lazily
// only when a leaf changed. Two replicas with identical key/state-hash
// sets hold bit-identical trees regardless of install order, shard count
// or engine, which is what lets the node layer compare roots in O(1).
package antientropy

import (
	"sync"
	"sync/atomic"
)

// Tree geometry, fixed so every replica agrees without negotiation.
// TreeLeaves buckets at the base, TreeArity children per interior node:
// level sizes 8192, 512, 32, 2, 1 — a five-level tree whose root compare
// costs one hash and whose full descent to one divergent leaf touches
// ~3·TreeArity hashes. 8192 leaves keep buckets small (~12 keys per
// bucket at 100k keys), so the final leaf exchange ships little.
const (
	TreeLeaves = 8192
	TreeArity  = 16
)

// treeLevelSizes[l] is the node count at level l (0 = leaves, last = root).
var treeLevelSizes = func() []int {
	sizes := []int{TreeLeaves}
	for n := TreeLeaves; n > 1; {
		n = (n + TreeArity - 1) / TreeArity
		sizes = append(sizes, n)
	}
	return sizes
}()

// TreeLevels returns the number of levels (leaves through root).
func TreeLevels() int { return len(treeLevelSizes) }

// TreeLevelSize returns the node count at a level, or 0 if out of range.
func TreeLevelSize(level int) int {
	if level < 0 || level >= len(treeLevelSizes) {
		return 0
	}
	return treeLevelSizes[level]
}

// TreeRootLevel returns the root's level index.
func TreeRootLevel() int { return len(treeLevelSizes) - 1 }

// TreeChildSpan returns the child index range [lo, hi) at level-1 for the
// node (level, index). The last node of a level may have fewer than
// TreeArity children.
func TreeChildSpan(level, index int) (lo, hi int) {
	lo = index * TreeArity
	hi = lo + TreeArity
	if s := TreeLevelSize(level - 1); hi > s {
		hi = s
	}
	return lo, hi
}

// fnv64 is FNV-1a over a string, inlined (hash/fnv allocates its state);
// shared by the bucket map and the per-key fold.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fnvMix folds 8 little-endian bytes of v into h (FNV-1a step).
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xFF
		h *= 1099511628211
	}
	return h
}

// TreeBucketOf maps a key to its leaf bucket: FNV-1a of the key modulo
// the fixed TreeLeaves geometry.
func TreeBucketOf(key string) int {
	return int(fnv64(key) % TreeLeaves)
}

// keyFold is one key's contribution to its leaf bucket: a hash of
// (key, stateHash) that leaves combine by XOR. Because XOR is commutative
// and self-inverse, an install updates its bucket incrementally —
// bucket ^= keyFold(key, oldHash) ^ keyFold(key, newHash) — and lands on
// exactly the value a from-scratch fold over all keys produces.
func keyFold(key string, stateHash uint64) uint64 {
	return fnvMix(fnv64(key), stateHash)
}

// foldChildren derives a parent hash from its children (order-sensitive
// FNV fold). Any deterministic mix works as long as every replica uses
// the same one.
func foldChildren(children []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range children {
		h = fnvMix(h, c)
	}
	return h
}

// Tree is the incrementally-maintained hash tree. Leaf updates are
// lock-free (CAS XOR on an atomic per bucket), so engines can apply them
// from any shard's critical section without a store-global lock; the
// interior levels are cached and re-derived from a leaf snapshot only
// when something changed since the last read. Interior reads may trail
// concurrent leaf updates by one rebuild — anti-entropy tolerates that
// (a stale compare either descends one extra subtree or misses a
// divergence until the next tick); at quiescence Digest is exact.
type Tree struct {
	leaves [TreeLeaves]atomic.Uint64
	dirty  atomic.Bool

	mu       sync.Mutex
	interior [][]uint64 // interior[l] holds level l+1; nil until first read
}

// NewTree returns an empty tree (every leaf zero).
func NewTree() *Tree { return &Tree{} }

// Apply XORs delta into a leaf bucket and marks the interior stale.
func (t *Tree) Apply(bucket int, delta uint64) {
	if delta == 0 || bucket < 0 || bucket >= TreeLeaves {
		return
	}
	a := &t.leaves[bucket]
	for {
		old := a.Load()
		if a.CompareAndSwap(old, old^delta) {
			break
		}
	}
	t.dirty.Store(true)
}

// Update folds a key's state-hash transition into the tree: the old
// contribution (if the key existed) is XORed out, the new one in.
func (t *Tree) Update(key string, oldHash uint64, existed bool, newHash uint64) {
	var delta uint64
	if existed {
		delta = keyFold(key, oldHash)
	}
	delta ^= keyFold(key, newHash)
	t.Apply(TreeBucketOf(key), delta)
}

// Digest returns the hash at (level, index); level 0 is the leaves, the
// top level the root. Out-of-range coordinates return 0.
func (t *Tree) Digest(level, index int) uint64 {
	if index < 0 || index >= TreeLevelSize(level) {
		return 0
	}
	if level == 0 {
		return t.leaves[index].Load()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refreshLocked()
	return t.interior[level-1][index]
}

// Root returns the tree's root hash.
func (t *Tree) Root() uint64 {
	return t.Digest(TreeRootLevel(), 0)
}

// refreshLocked re-derives the interior levels from a leaf snapshot if a
// leaf changed since the last derivation. The dirty flag is cleared
// before the leaves are read: an update racing the rebuild re-sets it,
// so the next read rebuilds again rather than serving a torn view
// forever.
func (t *Tree) refreshLocked() {
	if t.interior != nil && !t.dirty.Load() {
		return
	}
	t.dirty.Store(false)
	prev := make([]uint64, TreeLeaves)
	for i := range prev {
		prev[i] = t.leaves[i].Load()
	}
	interior := make([][]uint64, 0, len(treeLevelSizes)-1)
	for level := 1; level < len(treeLevelSizes); level++ {
		next := make([]uint64, treeLevelSizes[level])
		for i := range next {
			lo := i * TreeArity
			hi := lo + TreeArity
			if hi > len(prev) {
				hi = len(prev)
			}
			next[i] = foldChildren(prev[lo:hi])
		}
		interior = append(interior, next)
		prev = next
	}
	t.interior = interior
}

// BuildTree constructs a tree from scratch over (key, stateHash) pairs —
// the ground truth an incrementally-maintained tree must equal, used by
// the engine-conformance property test.
func BuildTree(hashes map[string]uint64) *Tree {
	t := NewTree()
	for k, h := range hashes {
		t.Update(k, 0, false, h)
	}
	return t
}
