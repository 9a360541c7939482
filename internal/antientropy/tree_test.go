package antientropy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Incremental updates must land on the same tree as a from-scratch build,
// for any interleaving of inserts and overwrites.
func TestTreeIncrementalMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inc := NewTree()
	truth := make(map[string]uint64)
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(1500))
		h := rng.Uint64()
		old, existed := truth[k]
		inc.Update(k, old, existed, h)
		truth[k] = h
	}
	want := BuildTree(truth)
	for level := 0; level < TreeLevels(); level++ {
		for i := 0; i < TreeLevelSize(level); i++ {
			if g, w := inc.Digest(level, i), want.Digest(level, i); g != w {
				t.Fatalf("digest(%d,%d) = %x, want %x", level, i, g, w)
			}
		}
	}
	if inc.Root() != want.Root() {
		t.Fatalf("root mismatch")
	}
}

// Install order must not matter: XOR-folded leaves are commutative.
func TestTreeOrderIndependent(t *testing.T) {
	keys := make([]string, 300)
	hashes := make(map[string]uint64, len(keys))
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
		hashes[keys[i]] = rng.Uint64()
	}
	a, b := NewTree(), NewTree()
	for _, k := range keys {
		a.Update(k, 0, false, hashes[k])
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Update(keys[i], 0, false, hashes[keys[i]])
	}
	if a.Root() != b.Root() {
		t.Fatal("root depends on insertion order")
	}
}

// Overwriting a key back to its old hash must restore the old tree, and
// two empty trees must agree at every coordinate.
func TestTreeSelfInverseAndEmpty(t *testing.T) {
	a, b := NewTree(), NewTree()
	if a.Root() != b.Root() {
		t.Fatal("empty roots differ")
	}
	r0 := a.Root()
	a.Update("k", 0, false, 42)
	if a.Root() == r0 {
		t.Fatal("update did not change root")
	}
	a.Update("k", 42, true, 99)
	a.Update("k", 99, true, 42)
	b.Update("k", 0, false, 42)
	if a.Root() != b.Root() {
		t.Fatal("undo did not restore tree")
	}
}

func TestTreeGeometry(t *testing.T) {
	if TreeLevelSize(0) != TreeLeaves {
		t.Fatalf("leaf level size = %d", TreeLevelSize(0))
	}
	if TreeLevelSize(TreeRootLevel()) != 1 {
		t.Fatalf("root level size = %d", TreeLevelSize(TreeRootLevel()))
	}
	if TreeLevelSize(-1) != 0 || TreeLevelSize(TreeLevels()) != 0 {
		t.Fatal("out-of-range level size not 0")
	}
	for level := TreeLevels() - 1; level > 0; level-- {
		covered := 0
		for i := 0; i < TreeLevelSize(level); i++ {
			lo, hi := TreeChildSpan(level, i)
			if lo != covered {
				t.Fatalf("level %d node %d starts at %d, want %d", level, i, lo, covered)
			}
			covered = hi
		}
		if covered != TreeLevelSize(level-1) {
			t.Fatalf("level %d covers %d of %d children", level, covered, TreeLevelSize(level-1))
		}
	}
	for _, k := range []string{"", "some-key", "key-0500"} {
		if b := TreeBucketOf(k); b < 0 || b >= TreeLeaves {
			t.Fatalf("TreeBucketOf(%q) = %d, outside [0, %d)", k, b, TreeLeaves)
		}
	}
}

// Concurrent Apply calls from many goroutines must commute (exercised
// under -race in CI).
func TestTreeConcurrentApply(t *testing.T) {
	tr := NewTree()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				tr.Update(k, 0, false, rng.Uint64())
				_ = tr.Root() // interleave interior reads with updates
			}
		}(w)
	}
	wg.Wait()
	truth := make(map[string]uint64)
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < 2000; i++ {
			truth[fmt.Sprintf("w%d-k%d", w, i)] = rng.Uint64()
		}
	}
	if tr.Root() != BuildTree(truth).Root() {
		t.Fatal("concurrent updates lost a delta")
	}
}

func hashes(n int, salt uint64) map[string]uint64 {
	m := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("key-%04d", i)] = uint64(i)*2654435761 + salt
	}
	return m
}

// diffLeaves walks a and b root-first, descending only into nodes whose
// hashes differ — the walk the node layer's ae.tree exchange performs.
// It returns the differing leaf buckets in index order and how many
// nodes the walk compared.
func diffLeaves(a, b *Tree) (leaves []int, compared int) {
	type coord struct{ level, index int }
	frontier := []coord{{TreeRootLevel(), 0}}
	for len(frontier) > 0 {
		var next []coord
		for _, c := range frontier {
			compared++
			if a.Digest(c.level, c.index) == b.Digest(c.level, c.index) {
				continue
			}
			if c.level == 0 {
				leaves = append(leaves, c.index)
				continue
			}
			lo, hi := TreeChildSpan(c.level, c.index)
			for i := lo; i < hi; i++ {
				next = append(next, coord{c.level - 1, i})
			}
		}
		frontier = next
	}
	return leaves, compared
}

// An empty tree has all-zero leaves, equals a build over no keys at every
// coordinate, and reads 0 outside its geometry.
func TestEmptyDigest(t *testing.T) {
	empty, built := NewTree(), BuildTree(nil)
	for i := 0; i < TreeLeaves; i++ {
		if d := empty.Digest(0, i); d != 0 {
			t.Fatalf("empty leaf %d = %x", i, d)
		}
	}
	if leaves, _ := diffLeaves(empty, built); leaves != nil {
		t.Fatalf("empty trees differ at %v", leaves)
	}
	if empty.Digest(-1, 0) != 0 || empty.Digest(0, TreeLeaves) != 0 || empty.Digest(TreeLevels(), 0) != 0 {
		t.Fatal("out-of-range digest not 0")
	}
}

// Identical key sets converge in one compare: the walk stops at the root.
func TestIdenticalSetsMatch(t *testing.T) {
	a, b := BuildTree(hashes(500, 0)), BuildTree(hashes(500, 0))
	leaves, compared := diffLeaves(a, b)
	if leaves != nil || compared != 1 {
		t.Fatalf("identical sets: diff = %v after %d compares, want none after 1", leaves, compared)
	}
}

// BuildTree folds a map in Go's randomised iteration order; every build,
// and an explicit reversed insertion, must land on the same tree at
// every coordinate.
func TestInsertionOrderIrrelevant(t *testing.T) {
	h := hashes(100, 7)
	a, b := BuildTree(h), BuildTree(h)
	rev := NewTree()
	for i := 99; i >= 0; i-- {
		k := fmt.Sprintf("key-%04d", i)
		rev.Update(k, 0, false, h[k])
	}
	for _, other := range []*Tree{b, rev} {
		if leaves, _ := diffLeaves(a, other); leaves != nil {
			t.Fatalf("insertion order changed buckets %v", leaves)
		}
	}
}

func TestSingleKeyDifference(t *testing.T) {
	ha, hb := hashes(1000, 0), hashes(1000, 0)
	hb["key-0500"] = 999999 // one divergent key
	leaves, _ := diffLeaves(BuildTree(ha), BuildTree(hb))
	if len(leaves) != 1 || leaves[0] != TreeBucketOf("key-0500") {
		t.Fatalf("diff = %v, want exactly bucket %d", leaves, TreeBucketOf("key-0500"))
	}
}

func TestMissingKeyDetected(t *testing.T) {
	ha, hb := hashes(200, 0), hashes(200, 0)
	delete(hb, "key-0042")
	leaves, _ := diffLeaves(BuildTree(ha), BuildTree(hb))
	if len(leaves) != 1 || leaves[0] != TreeBucketOf("key-0042") {
		t.Fatalf("diff = %v, want exactly bucket %d", leaves, TreeBucketOf("key-0042"))
	}
}

// Property: any single-key change is always localised to its bucket.
func TestRandomDivergenceAlwaysFound(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 50 + r.Intn(500)
		ha := hashes(n, uint64(trial))
		hb := make(map[string]uint64, n)
		for k, v := range ha {
			hb[k] = v
		}
		victim := fmt.Sprintf("key-%04d", r.Intn(n))
		hb[victim]++
		leaves, _ := diffLeaves(BuildTree(ha), BuildTree(hb))
		if len(leaves) != 1 || leaves[0] != TreeBucketOf(victim) {
			t.Fatalf("trial %d: diff = %v, victim bucket %d", trial, leaves, TreeBucketOf(victim))
		}
	}
}

// Locating one divergent key costs the same number of node compares at
// 10 keys as at 100k: the walk is bounded by the fixed geometry, not the
// keyspace.
func TestDigestSizeIndependentOfKeyCount(t *testing.T) {
	walk := func(n int) int {
		ha, hb := hashes(n, 0), hashes(n, 0)
		hb["key-0007"]++
		_, compared := diffLeaves(BuildTree(ha), BuildTree(hb))
		return compared
	}
	small, big := walk(10), walk(100000)
	if small != big {
		t.Fatalf("walk compared %d nodes at 10 keys, %d at 100k", small, big)
	}
	if bound := 1 + TreeArity*(TreeLevels()-1); small > bound {
		t.Fatalf("walk compared %d nodes, more than one path's %d", small, bound)
	}
}
