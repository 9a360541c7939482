package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/dot"
	"repro/internal/dvv"
	"repro/internal/vv"
)

// syncReference is the map-based merge dvvMech.Sync used before the linear
// merge, kept as the oracle FuzzSyncMatchesReference holds it to. Copies of
// one dot are joined in a map; a version survives unless its dot lies in
// another version's past, testing every pair; survivors are sorted by dot
// and values re-attached by dot: the last copy on a, else the first on b.
func syncReference(a, b DVVState) DVVState {
	merged := make(map[dot.Dot]dvv.Clock, len(a)+len(b))
	byDot := make(map[dot.Dot][]byte, len(a)+len(b))
	add := func(c dvv.Clock) {
		if e, ok := merged[c.D]; ok {
			merged[c.D] = dvv.Clock{D: c.D, V: vv.Join(e.V, c.V)}
			return
		}
		merged[c.D] = c
	}
	for _, v := range a {
		add(v.Clock)
		byDot[v.Clock.D] = v.Value
	}
	for _, v := range b {
		add(v.Clock)
		if _, ok := byDot[v.Clock.D]; !ok {
			byDot[v.Clock.D] = v.Value
		}
	}
	var clocks []dvv.Clock
	for _, c := range merged {
		dominated := false
		for _, o := range merged {
			if c.D != o.D && c.Before(o) {
				dominated = true
				break
			}
		}
		if !dominated {
			clocks = append(clocks, c)
		}
	}
	dvv.SortClocks(clocks)
	out := make(DVVState, len(clocks))
	for i, c := range clocks {
		out[i] = DVVVersion{Value: byDot[c.D], Clock: c}
	}
	return out
}

// firstCopyValues returns s with every copy of a dot carrying the value of
// that dot's first copy in s.
func firstCopyValues(s DVVState) DVVState {
	first := make(map[dot.Dot][]byte, len(s))
	out := make(DVVState, len(s))
	for i, v := range s {
		if _, ok := first[v.Clock.D]; !ok {
			first[v.Clock.D] = v.Value
		}
		out[i] = DVVVersion{Value: first[v.Clock.D], Clock: v.Clock}
	}
	return out
}

func clocksOf(s DVVState) []dvv.Clock {
	out := make([]dvv.Clock, len(s))
	for i, v := range s {
		out[i] = v.Clock
	}
	return out
}

func encodeDVV(s DVVState) []byte {
	w := codec.NewWriter(0)
	NewDVV().EncodeState(w, s)
	return w.Bytes()
}

// syncInput is the fuzz input for one Sync: the two states' encodings back
// to back.
func syncInput(a, b DVVState) []byte {
	return append(encodeDVV(a), encodeDVV(b)...)
}

// honestSides runs a random trace of puts (fresh, stale and blind contexts)
// and pairwise syncs over three replicas, each coordinating its own dots,
// and returns two of the replicas' states.
func honestSides(r *rand.Rand) (DVVState, DVVState) {
	m := NewDVV()
	servers := []dot.ID{"A", "B", "C"}
	states := []State{m.NewState(), m.NewState(), m.NewState()}
	var stale []Context
	for step := r.Intn(40); step >= 0; step-- {
		i := r.Intn(len(states))
		if r.Intn(4) == 0 {
			states[i] = m.Sync(states[i], states[r.Intn(len(states))])
			continue
		}
		ctx := m.Read(states[i]).Ctx
		switch r.Intn(3) {
		case 0:
			ctx = m.EmptyContext()
		case 1:
			if len(stale) > 0 {
				ctx = stale[r.Intn(len(stale))]
			}
		}
		stale = append(stale, m.Read(states[i]).Ctx)
		st, err := m.Put(states[i], ctx, []byte(fmt.Sprintf("v%d", step)), WriteInfo{Server: servers[i]})
		if err != nil {
			panic(err)
		}
		states[i] = st
	}
	return states[r.Intn(3)].(DVVState), states[r.Intn(3)].(DVVState)
}

// adversarialSide builds a state no honest trace produces: few distinct
// dots (so copies collide within and across sides), pasts that disagree
// under one dot or cover their own dot, zero counters, values that differ
// under one dot, and vectors up to 12 nodes wide.
func adversarialSide(r *rand.Rand) DVVState {
	ids := make([]dot.ID, 12)
	for i := range ids {
		ids[i] = dot.ID(fmt.Sprintf("n%02d", i))
	}
	s := make(DVVState, r.Intn(9))
	for i := range s {
		var past vv.VV
		for w := r.Intn(len(ids) + 1); w > 0; w-- {
			past.Set(ids[r.Intn(len(ids))], uint64(r.Intn(5)))
		}
		d := dot.New(ids[r.Intn(4)], uint64(r.Intn(5)))
		s[i] = DVVVersion{Value: []byte{'x', byte('0' + r.Intn(3))}, Clock: dvv.New(d, past)}
	}
	return s
}

func clk(node string, n uint64, pairs ...any) dvv.Clock {
	return dvv.New(dot.New(dot.ID(node), n), vv.From(pairs...))
}

func ver(val string, c dvv.Clock) DVVVersion { return DVVVersion{Value: []byte(val), Clock: c} }

// FuzzSyncMatchesReference holds dvvMech.Sync, and dvv.Sync on the bare
// clocks, to syncReference on two states decoded from the input: the
// encodings must be byte-identical. The reference's one arbitrary choice is
// the value of a dot with differing values on one side, where its map keeps
// a's last copy; the linear merge keeps the first copy, a's when a has the
// dot, else b's. That rule is asserted directly, and the reference is fed a
// with each dot's copies agreeing on their first value.
func FuzzSyncMatchesReference(f *testing.F) {
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 40; i++ {
		f.Add(syncInput(honestSides(r)))
	}
	for i := 0; i < 120; i++ {
		f.Add(syncInput(adversarialSide(r), adversarialSide(r)))
	}
	wide := vv.New()
	for i := 0; i < 12; i++ {
		wide.Set(dot.ID(fmt.Sprintf("w%02d", i)), 3)
	}
	for _, c := range []struct{ a, b DVVState }{
		// unsorted sides, one version dominated across sides
		{DVVState{ver("b2", clk("B", 2, "A", 1, "B", 1)), ver("a1", clk("A", 1))},
			DVVState{ver("c1", clk("C", 1, "B", 2)), ver("a2", clk("A", 2))}},
		// one dot twice on one side: different values and different pasts
		{DVVState{ver("first", clk("A", 3, "B", 1)), ver("second", clk("A", 3, "C", 2)), ver("c", clk("C", 2))}, nil},
		// one dot on both sides with different pasts
		{DVVState{ver("x", clk("A", 2, "B", 1))}, DVVState{ver("y", clk("A", 2, "C", 4)), ver("c", clk("C", 3))}},
		// a dot covered only by its own past survives; one also in another past does not
		{DVVState{ver("own", clk("A", 2, "A", 3))}, DVVState{ver("b", clk("B", 1, "A", 1))}},
		{DVVState{ver("own", clk("A", 2, "A", 3)), ver("x", clk("B", 1, "A", 2))}, nil},
		// zero dots are in no past
		{DVVState{ver("z", dvv.Clock{}), ver("a", clk("A", 1, "B", 9))}, DVVState{ver("z0", clk("B", 0, "B", 3))}},
		// J wider than the inline scratch
		{DVVState{ver("w", dvv.New(dot.New("w05", 2), wide)), ver("v", dvv.New(dot.New("w11", 3), nil))},
			DVVState{ver("u", dvv.New(dot.New("w00", 4), wide))}},
	} {
		f.Add(syncInput(c.a, c.b))
	}
	// more versions than the inline scratch
	manyA, manyB := allocSides(40)
	f.Add(syncInput(manyA.(DVVState), manyB.(DVVState)))
	m := NewDVV()
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := codec.NewReader(data)
		sa, err := m.DecodeState(rd)
		if err != nil {
			return
		}
		sb, err := m.DecodeState(rd)
		if err != nil {
			return
		}
		a, b := sa.(DVVState), sb.(DVVState)
		inA, inB := encodeDVV(a), encodeDVV(b)
		got := m.Sync(a, b).(DVVState)
		if !bytes.Equal(encodeDVV(a), inA) || !bytes.Equal(encodeDVV(b), inB) {
			t.Fatal("Sync modified an input")
		}
		if cap(got) != len(got) {
			t.Fatalf("result cap %d != len %d", cap(got), len(got))
		}
		first := make(map[dot.Dot][]byte)
		for _, v := range append(append(DVVState{}, a...), b...) {
			if _, ok := first[v.Clock.D]; !ok {
				first[v.Clock.D] = v.Value
			}
		}
		for _, v := range got {
			if !bytes.Equal(v.Value, first[v.Clock.D]) {
				t.Fatalf("dot %v kept value %q, want its first copy's %q", v.Clock.D, v.Value, first[v.Clock.D])
			}
		}
		want := syncReference(firstCopyValues(a), b)
		if g, w := encodeDVV(got), encodeDVV(want); !bytes.Equal(g, w) {
			t.Fatalf("Sync(%v, %v)\n got  %v\n want %v", a, b, got, want)
		}
		cw, cg := codec.NewWriter(0), codec.NewWriter(0)
		codec.EncodeClockSet(cw, clocksOf(want))
		codec.EncodeClockSet(cg, dvv.Sync(clocksOf(a), clocksOf(b)))
		if !bytes.Equal(cg.Bytes(), cw.Bytes()) {
			t.Fatalf("dvv.Sync disagrees with the reference on %v, %v", a, b)
		}
	})
}

// allocSides builds two replica states of one key with k siblings each and
// width-3 pasts: a holds k concurrent writes coordinated by A; b shares a's
// newer half and holds writes by B from a client that read a's older half,
// so a Sync collapses duplicates and drops dominated versions.
func allocSides(k int) (State, State) {
	m := NewDVV()
	var base State = m.NewState()
	for _, s := range []dot.ID{"A", "B", "C"} {
		base, _ = m.Put(base, m.Read(base).Ctx, []byte("base"), WriteInfo{Server: s})
	}
	a := base
	for i := 0; i < k; i++ {
		a, _ = m.Put(a, m.Read(base).Ctx, []byte(fmt.Sprintf("a%d", i)), WriteInfo{Server: "A"})
	}
	sorted := m.Sync(a, m.NewState()).(DVVState)
	older, newer := sorted[:k/2], sorted[k/2:]
	var b State = m.Sync(m.NewState(), newer)
	for i := 0; i < k/2; i++ {
		b, _ = m.Put(b, m.Read(older).Ctx, []byte(fmt.Sprintf("b%d", i)), WriteInfo{Server: "B"})
	}
	return a, b
}

var (
	sinkState  State
	sinkClocks []dvv.Clock
)

// TestDVVKernelAllocBounds pins the DVV kernel's allocations on the request
// path, as vv.TestKernelAllocBounds does for vectors. Sync allocates only its
// exactly sized result, plus the State interface box through the Mechanism:
// the same bound at every sibling count, so its allocations do not grow with
// k. Put allocates the new version's past, the result and its box.
func TestDVVKernelAllocBounds(t *testing.T) {
	m := NewDVV()
	val := []byte("v")
	for _, k := range []int{1, 4, 16, 32} {
		a, b := allocSides(k)
		ca, cb := clocksOf(a.(DVVState)), clocksOf(b.(DVVState))
		if len(ca) != k || len(cb) != k {
			t.Fatalf("k=%d: sides have %d and %d siblings", k, len(ca), len(cb))
		}
		ctx := m.Read(a).Ctx
		cases := []struct {
			name string
			max  float64
			f    func()
		}{
			{"dvvMech.Sync", 2, func() { sinkState = m.Sync(a, b) }},
			{"dvv.Sync", 1, func() { sinkClocks = dvv.Sync(ca, cb) }},
			{"dvvMech.Put", 3, func() { sinkState, _ = m.Put(a, ctx, val, WriteInfo{Server: "A"}) }},
		}
		for _, c := range cases {
			if got := testing.AllocsPerRun(100, c.f); got > c.max {
				t.Errorf("k=%d %s: %.1f allocs/op, want ≤ %.0f", k, c.name, got, c.max)
			}
		}
		if out := m.Sync(a, b).(DVVState); cap(out) != len(out) {
			t.Errorf("k=%d dvvMech.Sync: cap %d != len %d", k, cap(out), len(out))
		}
		if out := dvv.Sync(ca, cb); cap(out) != len(out) {
			t.Errorf("k=%d dvv.Sync: cap %d != len %d", k, cap(out), len(out))
		}
	}
}
