package core

import (
	"sort"

	"repro/internal/causal"
	"repro/internal/codec"
	"repro/internal/dot"
)

// HistVersion is one sibling under the causal-history oracle: the value,
// its own event id, and the full explicit history (which contains Self).
type HistVersion struct {
	Value []byte
	Self  dot.Dot
	H     causal.History
}

// HistState is the oracle's sibling set.
type HistState []HistVersion

type oracleMech struct{}

// NewOracle returns the explicit causal-history mechanism — exact by
// definition (comparisons are raw set inclusion) and unboundedly growing.
// Every precision claim in the experiments is measured against it.
func NewOracle() Mechanism { return oracleMech{} }

func (oracleMech) Name() string    { return "oracle" }
func (oracleMech) NewState() State { return HistState(nil) }

func (oracleMech) EmptyContext() Context { return causal.New() }

func (oracleMech) JoinContexts(a, b Context) (Context, error) {
	ha, err := ctxOrErr[causal.History]("oracle", a)
	if err != nil {
		return nil, err
	}
	hb, err := ctxOrErr[causal.History]("oracle", b)
	if err != nil {
		return nil, err
	}
	return causal.Union(ha, hb), nil
}

func (oracleMech) DescendsContext(a, b Context) (bool, error) {
	ha, err := ctxOrErr[causal.History]("oracle", a)
	if err != nil {
		return false, err
	}
	hb, err := ctxOrErr[causal.History]("oracle", b)
	if err != nil {
		return false, err
	}
	return hb.SubsetOf(ha), nil
}

func (oracleMech) Read(s State) ReadResult {
	st := mustState[HistState]("oracle", s)
	vals := make([][]byte, len(st))
	ctx := causal.New()
	for i, v := range st {
		vals[i] = v.Value
		for d := range v.H {
			ctx.Add(d)
		}
	}
	return ReadResult{Values: vals, Ctx: ctx}
}

func (oracleMech) Put(s State, c Context, value []byte, w WriteInfo) (State, error) {
	st := mustState[HistState]("oracle", s)
	ctx, err := ctxOrErr[causal.History]("oracle", c)
	if err != nil {
		return nil, err
	}
	// Fresh event id for the coordinating server: one past everything the
	// server has issued that is visible here.
	var max uint64
	scan := func(h causal.History) {
		for d := range h {
			if d.Node == w.Server && d.Counter > max {
				max = d.Counter
			}
		}
	}
	scan(ctx)
	for _, v := range st {
		scan(v.H)
	}
	self := dot.New(w.Server, max+1)
	nv := HistVersion{Value: value, Self: self, H: ctx.Event(self)}
	out := make(HistState, 0, len(st)+1)
	out = append(out, nv)
	for _, v := range st {
		if !ctx.Contains(v.Self) {
			out = append(out, v)
		}
	}
	return out, nil
}

func (oracleMech) Sync(a, b State) State {
	sa := mustState[HistState]("oracle", a)
	sb := mustState[HistState]("oracle", b)
	byself := make(map[dot.Dot]HistVersion, len(sa)+len(sb))
	for _, v := range sa {
		byself[v.Self] = v
	}
	for _, v := range sb {
		if _, ok := byself[v.Self]; !ok {
			byself[v.Self] = v
		}
	}
	out := make(HistState, 0, len(byself))
	for _, v := range byself {
		dominated := false
		for _, o := range byself {
			if o.Self != v.Self && o.H.Contains(v.Self) {
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

func encodeHistory(w *codec.Writer, h causal.History) {
	ds := h.Dots()
	w.Uvarint(uint64(len(ds)))
	for _, d := range ds {
		codec.EncodeDot(w, d)
	}
}

func decodeHistory(r *codec.Reader) (causal.History, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(r.Remaining()) {
		return nil, codec.ErrCorrupt
	}
	h := causal.New()
	for i := uint64(0); i < n; i++ {
		h.Add(codec.DecodeDot(r))
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	return h, nil
}

func (oracleMech) EncodeState(w *codec.Writer, s State) {
	st := mustState[HistState]("oracle", s)
	w.Uvarint(uint64(len(st)))
	for _, v := range st {
		codec.EncodeDot(w, v.Self)
		encodeHistory(w, v.H)
		w.BytesField(v.Value)
	}
}

func (oracleMech) DecodeState(r *codec.Reader) (State, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(r.Remaining()) {
		return nil, codec.ErrCorrupt
	}
	out := make(HistState, 0, n)
	for i := uint64(0); i < n; i++ {
		self := codec.DecodeDot(r)
		h, err := decodeHistory(r)
		if err != nil {
			return nil, err
		}
		val := r.BytesField()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out = append(out, HistVersion{Value: val, Self: self, H: h})
	}
	return out, nil
}

func (oracleMech) EncodeContext(w *codec.Writer, c Context) {
	encodeHistory(w, c.(causal.History))
}

func (oracleMech) DecodeContext(r *codec.Reader) (Context, error) {
	return decodeHistory(r)
}

func (oracleMech) MetadataBytes(s State) int {
	st := mustState[HistState]("oracle", s)
	w := codec.NewWriter(256)
	for _, v := range st {
		codec.EncodeDot(w, v.Self)
		encodeHistory(w, v.H)
	}
	return w.Len()
}

func (oracleMech) ContextBytes(c Context) int {
	w := codec.NewWriter(256)
	encodeHistory(w, c.(causal.History))
	return w.Len()
}

func (oracleMech) Siblings(s State) int {
	return len(mustState[HistState]("oracle", s))
}
