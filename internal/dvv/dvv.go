// Package dvv implements dotted version vectors (Preguiça, Baquero,
// Almeida, Fonte, Gonçalves — PODC 2012), the paper's primary contribution.
//
// A dotted version vector is a pair ((i,n), v): a dot (i,n) naming the
// globally unique event of this version, and a plain version vector v
// encoding its causal past. The represented causal history is
//
//	C[[((i,n), v)]] = {i_n} ∪ { j_m | 1 ≤ m ≤ v[j] }
//
// Keeping the version identifier *separate* from the causal past gives two
// properties plain version vectors cannot offer simultaneously:
//
//   - O(1) causality verification: a < b iff n_a ≤ v_b[i_a] — one lookup.
//   - Precise tracking of versions written concurrently by many clients
//     with one vector entry per *replica server*: the dot may sit beyond
//     v[i]+1 ("detached"), encoding a gapped history exactly.
//
// The package also implements the server-side kernel from the companion
// report (CoRR abs/1011.5808): Update (tag a client PUT), Sync (merge two
// replicas' version sets), Context (causal context of a sibling set) and
// Discard (drop versions covered by a client context).
package dvv

import (
	"fmt"
	"slices"

	"repro/internal/causal"
	"repro/internal/dot"
	"repro/internal/vv"
)

// Clock is a dotted version vector: the identifying event D plus the causal
// past V. The zero value has a zero dot and nil vector and represents "no
// version"; valid clocks produced by Update always carry a non-zero dot.
type Clock struct {
	D dot.Dot
	V vv.VV
}

// New builds a clock from a dot and a causal past. The vector is used as
// given (not copied); callers that retain v must pass v.Clone().
func New(d dot.Dot, past vv.VV) Clock {
	return Clock{D: d, V: past}
}

// Dot returns the clock's identifying event.
func (c Clock) Dot() dot.Dot { return c.D }

// Past returns the clock's causal past (the vector half). The returned
// slice is the clock's own storage; treat it as read-only.
func (c Clock) Past() vv.VV { return c.V }

// IsZero reports whether c identifies no version.
func (c Clock) IsZero() bool { return c.D.IsZero() && len(c.V) == 0 }

// Detached reports whether the dot is non-contiguous with the causal past
// (n > v[i]+1). A detached dot is exactly the case plain version vectors
// cannot represent without widening the history.
func (c Clock) Detached() bool {
	return c.D.Counter > c.V.Get(c.D.Node)+1
}

// History expands the clock into the explicit causal history it denotes —
// the paper's C[[·]] semantics. Used by the oracle-equivalence tests; cost
// is proportional to the history size.
func (c Clock) History() causal.History {
	h := causal.FromVV(c.V)
	if !c.D.IsZero() {
		h.Add(c.D)
	}
	return h
}

// Before reports a < b in O(1): the event of a is in the causal past of b.
// Following the paper: a < b iff n_a ≤ v_b[i_a], with the tie on identical
// dots excluded (an event does not precede itself).
func (a Clock) Before(b Clock) bool {
	if a.D == b.D {
		return false
	}
	return b.V.ContainsDot(a.D)
}

// Concurrent reports a ∥ b in O(1): neither event is in the other's past
// and they are not the same event.
func (a Clock) Concurrent(b Clock) bool {
	return a.D != b.D && !a.Before(b) && !b.Before(a)
}

// Compare classifies the relation between two version clocks. Identical
// dots mean the *same* version (events are globally unique), regardless of
// the vectors, which may differ transiently during replication.
func (a Clock) Compare(b Clock) vv.Ordering {
	switch {
	case a.D == b.D:
		return vv.Equal
	case a.Before(b):
		return vv.Before
	case b.Before(a):
		return vv.After
	default:
		return vv.ConcurrentOrder
	}
}

// Join folds the clock into a single version vector covering its whole
// history: max(v, dot). The result widens gapped histories (see
// Clock.Detached) and is what a client receives as its causal context.
func (c Clock) Join() vv.VV {
	v := c.V.Clone()
	v.MergeDot(c.D)
	return v
}

// Clone returns a deep copy of the clock.
func (c Clock) Clone() Clock {
	return Clock{D: c.D, V: c.V.Clone()}
}

// Equal reports structural equality (same dot, same vector).
func (c Clock) Equal(o Clock) bool {
	return c.D == o.D && c.V.Equal(o.V)
}

// String renders the paper's notation, e.g. "(A,3)[1,0]" is printed as
// "(A,3){A:1}" — dots keep their tuple form and the past uses the sorted
// bracketed notation of vv.VV.
func (c Clock) String() string {
	return fmt.Sprintf("%s%s", c.D, c.V)
}

// ---------------------------------------------------------------------------
// Server-side kernel over sibling sets.
// ---------------------------------------------------------------------------

// MaxDot returns the highest counter node id has issued that is visible in
// the sibling set s: max over dots of id and vector entries for id. The
// next event coordinated by id must use MaxDot(s, id)+1 to be unique.
func MaxDot(s []Clock, id dot.ID) uint64 {
	var m uint64
	for _, c := range s {
		m = max(m, c.MaxCounter(id))
	}
	return m
}

// MaxCounter returns the highest counter of node id that c names, in its
// dot or its past (0 if none).
func (c Clock) MaxCounter(id dot.ID) uint64 {
	m := c.V.Get(id)
	if c.D.Node == id {
		m = max(m, c.D.Counter)
	}
	return m
}

// Context returns the causal context of sibling set s: the join of every
// clock's past and dot. A client that read s and later writes back presents
// this vector as evidence of what it saw.
func Context(s []Clock) vv.VV {
	ctx := vv.New()
	for _, c := range s {
		ctx.Merge(c.V)
		ctx.MergeDot(c.D)
	}
	return ctx
}

// Update tags a client PUT at coordinating server r. ctx is the causal
// context the client obtained from its preceding GET (empty for a blind
// write). The new clock is ((r, MaxDot(s,r)+1), ctx): its dot is fresh and
// possibly detached from ctx, so the represented history is exactly
// {r_n} ∪ C[[ctx]] — no false dominance over concurrent siblings.
//
// The context vector is cloned; callers may reuse ctx afterwards.
func Update(s []Clock, ctx vv.VV, r dot.ID) Clock {
	n := MaxDot(s, r) + 1
	return Clock{D: dot.New(r, n), V: ctx.Clone()}
}

// Discard returns the siblings of s not covered by ctx — versions whose
// identifying event is not in the client's read context survive as
// concurrent siblings; the rest were causally overwritten. The returned
// slice shares clock values (not slice storage) with s.
func Discard(s []Clock, ctx vv.VV) []Clock {
	out := make([]Clock, 0, len(s))
	for _, c := range s {
		if !ctx.ContainsDot(c.D) {
			out = append(out, c)
		}
	}
	return out
}

// Put is the complete coordinator-side write: discard what the client saw,
// tag the new version, and return the new sibling set with the new version
// first, followed by surviving concurrent siblings.
func Put(s []Clock, ctx vv.VV, r dot.ID) (Clock, []Clock) {
	nc := Update(s, ctx, r)
	rest := Discard(s, ctx)
	out := make([]Clock, 0, len(rest)+1)
	out = append(out, nc)
	out = append(out, rest...)
	return nc, out
}

// Sync merges the sibling sets of two replicas: every version whose dot lies
// in another version's past is discarded, duplicates (same dot) keep one
// copy, and survivors are returned sorted by dot for determinism. Sync is
// commutative, associative and idempotent (a join-semilattice on sets of
// versions), which is what makes anti-entropy safe to run in any order.
// It is SyncFunc over bare clocks; see there for the algorithm and its cost.
func Sync(s1, s2 []Clock) []Clock {
	return SyncFunc(s1, s2, func(c *Clock) *Clock { return c })
}

// SyncFunc is Sync over any sibling type that carries a Clock, so a
// mechanism's values travel with their clocks; clock returns a pointer to an
// element's clock. Neither input is modified and neither needs to be sorted.
// The result is a fresh, exact-size slice (cap == len) in dot order. Its
// elements are copies of input elements: of the copies of one dot the first
// wins (the first in a, else the first in b), with its past replaced by the
// join of every copy's past when those differ. Dots are globally unique, so
// on honest traces all copies of a dot are equal and nothing is joined.
//
// The merge is linear after one sort:
//
//  1. gather a and b into one scratch slice and sort it by dot, copies of
//     one dot in input order;
//  2. collapse each run of equal dots into its first copy;
//  3. compute J, the per-node max over every past, remembering which version
//     set each entry;
//  4. a version whose dot lies above J[node] is in no past and survives
//     without a scan. One at or below J[node] is dominated by the version
//     that set J[node] — unless that is the version itself, a past covering
//     its own dot, which honest traces never produce; only then are the
//     other pasts scanned, which keeps the pairwise rule exact on any input;
//  5. copy the survivors into the result.
//
// With k = len(a)+len(b) versions of vector width w this is
// O(k·log k + k·w) time. The scratch and J live on the stack up to
// syncScratchInline versions and syncJoinInline nodes, so the result is the
// only allocation; beyond either size a spill costs one more (J grows again
// only when the pasts name different nodes), and on malformed input each
// joined past costs two.
func SyncFunc[S ~[]E, E any](a, b S, clock func(*E) *Clock) S {
	var inline [syncScratchInline]syncEntry
	es := inline[:0]
	if n := len(a) + len(b); n > len(inline) {
		es = make([]syncEntry, 0, n)
	}
	for i := range a {
		es = append(es, syncEntry{c: clock(&a[i]), src: i})
	}
	for i := range b {
		es = append(es, syncEntry{c: clock(&b[i]), src: len(a) + i})
	}
	es = mergeEntries(es)
	out := make(S, len(es))
	for i, e := range es {
		if e.src < len(a) {
			out[i] = a[e.src]
		} else {
			out[i] = b[e.src-len(a)]
		}
		*clock(&out[i]) = *e.c
	}
	return out
}

// syncEntry is one version in SyncFunc's scratch: its clock — the input's
// own, or a joined copy when duplicate copies' pasts differ — and the index
// into a++b of the element it came from, or -1 once it is dominated.
type syncEntry struct {
	c   *Clock
	src int
}

// syncScratchInline and syncJoinInline size SyncFunc's stack scratch: 64
// versions covers both sides of a key with 32 siblings each, and 8 nodes a
// replica set with room for membership change.
const (
	syncScratchInline = 64
	syncJoinInline    = 8
)

// joinEntry is one node of J: the highest counter any past holds for id,
// and the scratch index of the first version whose past holds it.
type joinEntry struct {
	id dot.ID
	n  uint64
	at int
}

// mergeEntries sorts es by dot, collapses duplicate dots and drops every
// version whose dot lies in another version's past, reusing es's storage.
// It returns the survivors in dot order.
func mergeEntries(es []syncEntry) []syncEntry {
	// Ties on the dot fall back to input order, which makes this a stable
	// sort; pdqsort, unlike the stable sort, also undoes the newest-first
	// order Put leaves in one pass.
	slices.SortFunc(es, func(x, y syncEntry) int {
		if c := x.c.D.Compare(y.c.D); c != 0 {
			return c
		}
		return x.src - y.src
	})
	w := 0
	for _, e := range es {
		if w > 0 && es[w-1].c.D == e.c.D {
			if prev := es[w-1].c; !prev.V.Equal(e.c.V) {
				es[w-1].c = &Clock{D: prev.D, V: vv.Join(prev.V, e.c.V)}
			}
			continue
		}
		es[w] = e
		w++
	}
	es = es[:w]

	// J is at least as wide as the widest past, and honest pasts name the
	// same replicas, so a spill sized to that rarely grows again.
	var inline [syncJoinInline]joinEntry
	j := inline[:0]
	widest := 0
	for _, e := range es {
		widest = max(widest, len(e.c.V))
	}
	if widest > len(inline) {
		j = make([]joinEntry, 0, widest)
	}
	for p := range es {
		k := 0
		for _, e := range es[p].c.V {
			// Honest pasts name the same nodes: J's next entry is usually e's.
			if k == len(j) || j[k].id != e.ID {
				for k < len(j) && j[k].id < e.ID {
					k++
				}
				if k == len(j) || j[k].id != e.ID {
					j = slices.Insert(j, k, joinEntry{id: e.ID, n: e.N, at: p})
					k++
					continue
				}
			}
			if e.N > j[k].n {
				j[k].n, j[k].at = e.N, p
			}
			k++
		}
	}

	// es is sorted by node, so one forward walk over J finds each dot's entry.
	k := 0
	for p := range es {
		d := es[p].c.D
		for k < len(j) && j[k].id < d.Node {
			k++
		}
		if d.Counter == 0 || k == len(j) || j[k].id != d.Node || d.Counter > j[k].n {
			continue
		}
		if j[k].at != p || inOtherPast(es, p) {
			es[p].src = -1
		}
	}
	out := es[:0]
	for _, e := range es {
		if e.src >= 0 {
			out = append(out, e)
		}
	}
	return out
}

// inOtherPast reports whether es[p]'s dot lies in the past of any other
// version in es.
func inOtherPast(es []syncEntry, p int) bool {
	for q := range es {
		if q != p && es[q].c.V.ContainsDot(es[p].c.D) {
			return true
		}
	}
	return false
}

// SortClocks orders clocks deterministically by dot (node id, then
// counter). This is a display/encoding order, not a causal order.
func SortClocks(s []Clock) {
	slices.SortFunc(s, func(x, y Clock) int { return x.D.Compare(y.D) })
}

// Size returns the abstract metadata size of the clock: number of vector
// entries plus one for the dot. The codec package reports exact encoded
// bytes; this count is the unit the paper's complexity claims are stated in.
func (c Clock) Size() int {
	n := c.V.Len()
	if !c.D.IsZero() {
		n++
	}
	return n
}
