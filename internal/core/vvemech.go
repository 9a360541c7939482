package core

import (
	"sort"

	"repro/internal/codec"
	"repro/internal/dot"
	"repro/internal/vve"
)

// VVEVersion is one sibling under the WinFS-style mechanism: the value,
// its own event id, and the full causal past as a version vector with
// exceptions. Unlike a plain VV the VVE represents gapped histories
// exactly, so the mechanism is as precise as the causal-history oracle;
// unlike a DVV it stores every gap explicitly, so metadata grows with the
// number of outstanding concurrent events rather than staying at one
// entry per replica.
type VVEVersion struct {
	Value []byte
	Self  dot.Dot
	Past  vve.VVE
}

// VVEState is the sibling set under the VVE mechanism.
type VVEState []VVEVersion

type vveMech struct{}

// NewVVE returns the version-vectors-with-exceptions mechanism (Malkhi &
// Terry's WinFS scheme adapted to per-key multi-version storage) — the
// paper's related-work baseline that also decouples version ids from the
// causal past, at the cost of explicit exception sets.
func NewVVE() Mechanism { return vveMech{} }

func (vveMech) Name() string    { return "vve" }
func (vveMech) NewState() State { return VVEState(nil) }

func (vveMech) EmptyContext() Context { return vve.New() }

func (vveMech) JoinContexts(a, b Context) (Context, error) {
	va, err := ctxOrErr[vve.VVE]("vve", a)
	if err != nil {
		return nil, err
	}
	vb, err := ctxOrErr[vve.VVE]("vve", b)
	if err != nil {
		return nil, err
	}
	return va.Clone().Merge(vb), nil
}

func (vveMech) DescendsContext(a, b Context) (bool, error) {
	va, err := ctxOrErr[vve.VVE]("vve", a)
	if err != nil {
		return false, err
	}
	vb, err := ctxOrErr[vve.VVE]("vve", b)
	if err != nil {
		return false, err
	}
	return vb.SubsetOf(va), nil
}

func (vveMech) Read(s State) ReadResult {
	st := mustState[VVEState]("vve", s)
	vals := make([][]byte, len(st))
	ctx := vve.New()
	for i, v := range st {
		vals[i] = v.Value
		ctx.Merge(v.Past)
		ctx.Add(v.Self)
	}
	return ReadResult{Values: vals, Ctx: ctx}
}

func (vveMech) Put(s State, c Context, value []byte, w WriteInfo) (State, error) {
	st := mustState[VVEState]("vve", s)
	ctx, err := ctxOrErr[vve.VVE]("vve", c)
	if err != nil {
		return nil, err
	}
	// Fresh event at the coordinating server: one past every counter of
	// w.Server visible here (VVE bases are the per-node maxima).
	var max uint64
	bump := func(e vve.VVE) {
		if ent, ok := e[w.Server]; ok && ent.Base > max {
			max = ent.Base
		}
	}
	bump(ctx)
	for _, v := range st {
		bump(v.Past)
		if v.Self.Node == w.Server && v.Self.Counter > max {
			max = v.Self.Counter
		}
	}
	self := dot.New(w.Server, max+1)
	nv := VVEVersion{Value: value, Self: self, Past: ctx.Clone()}
	out := make(VVEState, 0, len(st)+1)
	out = append(out, nv)
	for _, v := range st {
		if !ctx.Contains(v.Self) {
			out = append(out, v)
		}
	}
	return out, nil
}

func (vveMech) Sync(a, b State) State {
	sa := mustState[VVEState]("vve", a)
	sb := mustState[VVEState]("vve", b)
	bySelf := make(map[dot.Dot]VVEVersion, len(sa)+len(sb))
	for _, v := range sa {
		bySelf[v.Self] = v
	}
	for _, v := range sb {
		if _, ok := bySelf[v.Self]; !ok {
			bySelf[v.Self] = v
		}
	}
	out := make(VVEState, 0, len(bySelf))
	for _, v := range bySelf {
		dominated := false
		for _, o := range bySelf {
			if o.Self != v.Self && o.Past.Contains(v.Self) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self.Compare(out[j].Self) < 0 })
	return out
}

func encodeVVE(w *codec.Writer, v vve.VVE) {
	ids := make([]dot.ID, 0, len(v))
	for id := range v {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		e := v[id]
		w.String(string(id))
		w.Uvarint(e.Base)
		xs := make([]uint64, 0, len(e.Exceptions))
		for x := range e.Exceptions {
			xs = append(xs, x)
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		w.Uvarint(uint64(len(xs)))
		for _, x := range xs {
			w.Uvarint(x)
		}
	}
}

func decodeVVE(r *codec.Reader) (vve.VVE, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(r.Remaining()) {
		return nil, codec.ErrCorrupt
	}
	out := vve.New()
	for i := uint64(0); i < n; i++ {
		id := dot.ID(r.String())
		base := r.Uvarint()
		nx := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if id == "" || nx > uint64(r.Remaining()) {
			return nil, codec.ErrCorrupt
		}
		// Reconstruct through Add to keep the canonical invariants.
		out.Add(dot.New(id, base))
		exceptions := make(map[uint64]struct{}, nx)
		for j := uint64(0); j < nx; j++ {
			x := r.Uvarint()
			if x == 0 || x >= base {
				return nil, codec.ErrCorrupt
			}
			exceptions[x] = struct{}{}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		// Fill every non-excepted counter below base.
		for c := uint64(1); c < base; c++ {
			if _, excepted := exceptions[c]; !excepted {
				out.Add(dot.New(id, c))
			}
		}
	}
	return out, nil
}

func (vveMech) EncodeState(w *codec.Writer, s State) {
	st := mustState[VVEState]("vve", s)
	w.Uvarint(uint64(len(st)))
	for _, v := range st {
		codec.EncodeDot(w, v.Self)
		encodeVVE(w, v.Past)
		w.BytesField(v.Value)
	}
}

func (vveMech) DecodeState(r *codec.Reader) (State, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(r.Remaining()) {
		return nil, codec.ErrCorrupt
	}
	out := make(VVEState, 0, n)
	for i := uint64(0); i < n; i++ {
		self := codec.DecodeDot(r)
		past, err := decodeVVE(r)
		if err != nil {
			return nil, err
		}
		val := r.BytesField()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out = append(out, VVEVersion{Value: val, Self: self, Past: past})
	}
	return out, nil
}

func (vveMech) EncodeContext(w *codec.Writer, c Context) {
	encodeVVE(w, c.(vve.VVE))
}

func (vveMech) DecodeContext(r *codec.Reader) (Context, error) {
	return decodeVVE(r)
}

func (vveMech) MetadataBytes(s State) int {
	st := mustState[VVEState]("vve", s)
	w := codec.NewWriter(128)
	for _, v := range st {
		codec.EncodeDot(w, v.Self)
		encodeVVE(w, v.Past)
	}
	return w.Len()
}

func (vveMech) ContextBytes(c Context) int {
	w := codec.NewWriter(128)
	encodeVVE(w, c.(vve.VVE))
	return w.Len()
}

func (vveMech) Siblings(s State) int {
	return len(mustState[VVEState]("vve", s))
}
