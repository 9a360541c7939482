// Package vv implements plain version vectors (Parker et al. 1983).
//
// A version vector V maps node ids to event counters: V[i] = n encodes that
// the events (i,1)..(i,n) are in the causal past represented by V. Version
// vectors are both a baseline mechanism in their own right (with one entry
// per server, or one entry per client) and the "causal past" half of a
// dotted version vector.
//
// # Representation
//
// A vector is a slice of {ID, Counter} entries in canonical form: sorted by
// id, strictly ascending, with no zero counters. The paper's headline cost
// model (O(1) causality checks, bounded per-server metadata) makes clock
// bookkeeping — not causality — the dominant request-path cost, so the
// kernel is written to never allocate scratch space: iteration is already
// in encoding order, lookups are binary searches, and the lattice
// operations are linear two-pointer merges. Riak's production dvvset
// (CoRR abs/1011.5808) stores clocks the same way for the same reason.
//
// Complexity per operation (w = entries in the receiver, u = entries in the
// argument):
//
//	Get, ContainsDot          O(log w)    0 allocs
//	Set, IncInPlace, MergeDot O(w)        0 allocs unless the id is new
//	Clone, Inc                O(w)        1 alloc
//	Join, Merge               O(w + u)    ≤ 1 alloc (Merge: 0 when no new ids)
//	Descends, Compare, Equal  O(w + u)    0 allocs
//	String, IDs, Dots         O(w)        output allocation only
//
// The zero value (nil slice) is the empty vector and is usable directly
// with every read-only method. Mutating methods use pointer receivers
// because insertion may grow the slice; read-only methods use value
// receivers. Ranging over a VV yields entries in sorted id order.
package vv

import (
	"strconv"
	"strings"

	"repro/internal/dot"
)

// Entry is one (id, counter) pair of a version vector. Canonical vectors
// never contain N == 0.
type Entry struct {
	ID dot.ID
	N  uint64
}

// VV is a version vector: entries sorted by strictly ascending id, no zero
// counters. The zero value (nil) is the empty vector.
type VV []Entry

// New returns an empty version vector. The empty vector is nil; mutating
// methods grow it in place via their pointer receivers.
func New() VV { return nil }

// From builds a vector from alternating (id, counter) pairs. It is intended
// for tests and examples: From("A", 2, "B", 1) == {A:2, B:1}. Later pairs
// overwrite earlier ones for the same id; zero counters are dropped.
func From(pairs ...any) VV {
	if len(pairs)%2 != 0 {
		panic("vv.From: odd number of arguments")
	}
	v := make(VV, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		id, ok := pairs[i].(string)
		if !ok {
			panic("vv.From: id must be a string")
		}
		var n uint64
		switch c := pairs[i+1].(type) {
		case int:
			n = uint64(c)
		case uint64:
			n = c
		default:
			panic("vv.From: counter must be int or uint64")
		}
		v.Set(dot.ID(id), n)
	}
	return v
}

// FromEntries validates es as a canonical vector (ids strictly ascending
// and non-empty, counters non-zero) and returns it as a VV without copying.
func FromEntries(es []Entry) (VV, bool) {
	for i, e := range es {
		if e.ID == "" || e.N == 0 {
			return nil, false
		}
		if i > 0 && es[i-1].ID >= e.ID {
			return nil, false
		}
	}
	return VV(es), true
}

// search returns the index of id in v, or its insertion point with
// ok=false.
func (v VV) search(id dot.ID) (int, bool) {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(v) && v[lo].ID == id
}

// Get returns the counter for id (0 if absent).
func (v VV) Get(id dot.ID) uint64 {
	if i, ok := v.search(id); ok {
		return v[i].N
	}
	return 0
}

// Set records counter n for id, growing the slice as needed. Setting 0
// removes the entry so that vectors stay canonical (no explicit zero
// entries).
func (v *VV) Set(id dot.ID, n uint64) {
	i, ok := v.search(id)
	switch {
	case ok && n == 0:
		*v = append((*v)[:i], (*v)[i+1:]...)
	case ok:
		(*v)[i].N = n
	case n != 0:
		v.insertAt(i, Entry{ID: id, N: n})
	}
}

// insertAt places e at index i, shifting the tail up by one.
func (v *VV) insertAt(i int, e Entry) {
	*v = append(*v, Entry{})
	copy((*v)[i+1:], (*v)[i:])
	(*v)[i] = e
}

// Len returns the number of non-zero entries.
func (v VV) Len() int { return len(v) }

// IsEmpty reports whether the vector represents the empty causal history.
func (v VV) IsEmpty() bool { return len(v) == 0 }

// Clone returns an independent copy of v in exactly one allocation.
func (v VV) Clone() VV {
	if len(v) == 0 {
		return nil
	}
	c := make(VV, len(v))
	copy(c, v)
	return c
}

// Inc returns a copy of v with id's counter incremented, together with the
// dot of the new event. v itself is not modified.
func (v VV) Inc(id dot.ID) (VV, dot.Dot) {
	i, ok := v.search(id)
	if ok {
		c := v.Clone()
		c[i].N++
		return c, dot.New(id, c[i].N)
	}
	c := make(VV, len(v)+1)
	copy(c, v[:i])
	c[i] = Entry{ID: id, N: 1}
	copy(c[i+1:], v[i:])
	return c, dot.New(id, 1)
}

// IncInPlace increments id's counter in v and returns the new event's dot.
func (v *VV) IncInPlace(id dot.ID) dot.Dot {
	i, ok := v.search(id)
	if ok {
		(*v)[i].N++
		return dot.New(id, (*v)[i].N)
	}
	v.insertAt(i, Entry{ID: id, N: 1})
	return dot.New(id, 1)
}

// ContainsDot reports whether event d is in the causal history encoded by
// v, i.e. d.Counter ≤ v[d.Node]. This is the O(1)-per-entry set-membership
// test that dotted version vectors exploit (O(log w) in the vector width,
// with no allocation).
func (v VV) ContainsDot(d dot.Dot) bool {
	if d.Counter == 0 {
		return false
	}
	i, ok := v.search(d.Node)
	return ok && d.Counter <= v[i].N
}

// unionLen counts the distinct ids across a and b (the size of their
// pointwise-max merge) without allocating.
func unionLen(a, b VV) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].ID < b[j].ID:
			i++
		case a[i].ID > b[j].ID:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n + (len(a) - i) + (len(b) - j)
}

// mergeInto writes the pointwise max of a and b into dst, which must have
// length unionLen(a, b).
func mergeInto(dst, a, b VV) {
	k, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].ID < b[j].ID:
			dst[k] = a[i]
			i++
		case a[i].ID > b[j].ID:
			dst[k] = b[j]
			j++
		default:
			dst[k] = a[i]
			if b[j].N > a[i].N {
				dst[k].N = b[j].N
			}
			i++
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// Join merges a and b pointwise-max into a fresh vector (the least upper
// bound in the version-vector lattice). Neither input is modified; the
// result is built in a single exact-size allocation.
func Join(a, b VV) VV {
	n := unionLen(a, b)
	if n == 0 {
		return nil
	}
	c := make(VV, n)
	mergeInto(c, a, b)
	return c
}

// Merge folds b into v in place (pointwise max) and returns the merged
// vector. When every id of b is already present in v the merge is a
// zero-allocation in-place walk; otherwise the result is rebuilt in one
// exact-size allocation.
func (v *VV) Merge(b VV) VV {
	a := *v
	if len(b) == 0 {
		return a
	}
	n := unionLen(a, b)
	if n == len(a) {
		i := 0
		for _, eb := range b {
			for a[i].ID < eb.ID {
				i++
			}
			if eb.N > a[i].N {
				a[i].N = eb.N
			}
		}
		return a
	}
	c := make(VV, n)
	mergeInto(c, a, b)
	*v = c
	return c
}

// MergeDot folds a single dot into v in place: v[d.Node] = max(v[d.Node],
// d.Counter). Note this *loses precision* when d is not contiguous with v —
// exactly the approximation dotted version vectors avoid by keeping the dot
// separate. Callers that need exactness must check contiguity themselves.
func (v *VV) MergeDot(d dot.Dot) VV {
	if d.Counter == 0 {
		return *v
	}
	i, ok := v.search(d.Node)
	if ok {
		if d.Counter > (*v)[i].N {
			(*v)[i].N = d.Counter
		}
		return *v
	}
	v.insertAt(i, Entry{ID: d.Node, N: d.Counter})
	return *v
}

// Descends reports a ≥ b: every event in b's history is in a's
// (∀ id: a[id] ≥ b[id]). A linear two-pointer walk: O(len(a)+len(b)), no
// allocation.
func (a VV) Descends(b VV) bool {
	i := 0
	for _, eb := range b {
		for i < len(a) && a[i].ID < eb.ID {
			i++
		}
		if i >= len(a) || a[i].ID != eb.ID || a[i].N < eb.N {
			return false
		}
		i++
	}
	return true
}

// Equal reports pointwise equality. Canonical form makes this a direct
// entry-by-entry comparison.
func (a VV) Equal(b VV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Concurrent reports a ∥ b: neither descends the other.
func (a VV) Concurrent(b VV) bool {
	return a.Compare(b) == ConcurrentOrder
}

// Ordering is the outcome of comparing two causal pasts.
type Ordering int

// The four possible causal relations between two clocks.
const (
	Equal           Ordering = iota + 1 // identical histories
	Before                              // receiver strictly precedes argument
	After                               // receiver strictly follows argument
	ConcurrentOrder                     // incomparable histories
)

// String names the ordering for diagnostics.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case ConcurrentOrder:
		return "concurrent"
	default:
		return "invalid(" + strconv.Itoa(int(o)) + ")"
	}
}

// Compare classifies the relation between a and b in one two-pointer pass:
// O(len(a)+len(b)), no allocation.
func (a VV) Compare(b VV) Ordering {
	geq, leq := true, true // a ≥ b, b ≥ a
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].ID < b[j].ID:
			leq = false // a has an entry b lacks
			i++
		case a[i].ID > b[j].ID:
			geq = false
			j++
		default:
			if a[i].N < b[j].N {
				geq = false
			} else if a[i].N > b[j].N {
				leq = false
			}
			i++
			j++
		}
	}
	if i < len(a) {
		leq = false
	}
	if j < len(b) {
		geq = false
	}
	switch {
	case geq && leq:
		return Equal
	case geq:
		return After
	case leq:
		return Before
	default:
		return ConcurrentOrder
	}
}

// IDs returns the ids with non-zero entries, already in sorted order.
func (v VV) IDs() []dot.ID {
	ids := make([]dot.ID, len(v))
	for i, e := range v {
		ids[i] = e.ID
	}
	return ids
}

// Dots enumerates every event identifier in the history encoded by v, in
// deterministic order. The result has Σ v[id] elements — use only for
// small vectors (tests, the causal-history oracle).
func (v VV) Dots() []dot.Dot {
	out := make([]dot.Dot, 0, v.Total())
	for _, e := range v {
		for c := uint64(1); c <= e.N; c++ {
			out = append(out, dot.New(e.ID, c))
		}
	}
	return out
}

// Total returns the number of events in the encoded history (Σ counters).
func (v VV) Total() uint64 {
	var t uint64
	for _, e := range v {
		t += e.N
	}
	return t
}

// String renders the vector in the paper's bracketed notation with sorted
// ids, e.g. "{A:2, B:1}". The empty vector renders as "{}".
func (v VV) String() string {
	if len(v) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(e.ID))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(e.N, 10))
	}
	b.WriteByte('}')
	return b.String()
}
