package core

import (
	"repro/internal/codec"
	"repro/internal/dot"
	"repro/internal/dvv"
	"repro/internal/vv"
)

// DVVVersion is one sibling under the dotted-version-vector mechanism.
type DVVVersion struct {
	Value []byte
	Clock dvv.Clock
}

// DVVState is the sibling set — the kernel's S.
type DVVState []DVVVersion

// dvvMech adapts the internal/dvv kernel to the Mechanism interface.
type dvvMech struct{}

// NewDVV returns the dotted-version-vector mechanism (the paper's
// contribution): per-version clocks ((i,n), v) with one vector entry per
// replica server, O(1) comparison via the dot.
func NewDVV() Mechanism { return dvvMech{} }

func (dvvMech) Name() string    { return "dvv" }
func (dvvMech) NewState() State { return DVVState(nil) }

func (dvvMech) EmptyContext() Context { return vv.New() }

func (dvvMech) JoinContexts(a, b Context) (Context, error) {
	va, err := ctxOrErr[vv.VV]("dvv", a)
	if err != nil {
		return nil, err
	}
	vb, err := ctxOrErr[vv.VV]("dvv", b)
	if err != nil {
		return nil, err
	}
	return vv.Join(va, vb), nil
}

func (dvvMech) DescendsContext(a, b Context) (bool, error) {
	va, err := ctxOrErr[vv.VV]("dvv", a)
	if err != nil {
		return false, err
	}
	vb, err := ctxOrErr[vv.VV]("dvv", b)
	if err != nil {
		return false, err
	}
	return va.Descends(vb), nil
}

func (dvvMech) Read(s State) ReadResult {
	st := mustState[DVVState]("dvv", s)
	vals := make([][]byte, len(st))
	clocks := make([]dvv.Clock, len(st))
	for i, v := range st {
		vals[i] = v.Value
		clocks[i] = v.Clock
	}
	return ReadResult{Values: vals, Ctx: dvv.Context(clocks)}
}

func (dvvMech) Put(s State, c Context, value []byte, w WriteInfo) (State, error) {
	st := mustState[DVVState]("dvv", s)
	ctx, err := ctxOrErr[vv.VV]("dvv", c)
	if err != nil {
		return nil, err
	}
	// dvv.Update, with MaxDot taken over the state in place of a copy of
	// its clocks.
	var n uint64
	for _, v := range st {
		n = max(n, v.Clock.MaxCounter(w.Server))
	}
	out := make(DVVState, 0, len(st)+1)
	out = append(out, DVVVersion{Value: value, Clock: dvv.New(dot.New(w.Server, n+1), ctx.Clone())})
	for _, v := range st {
		if !ctx.ContainsDot(v.Clock.D) {
			out = append(out, v)
		}
	}
	return out, nil
}

// Sync is dvv.SyncFunc over the versions themselves, so each value travels
// with its clock: the result is in dot order and exactly sized, and a dot
// held by both sides keeps the first copy's value (a's, when a has it).
func (dvvMech) Sync(a, b State) State {
	return dvv.SyncFunc(mustState[DVVState]("dvv", a), mustState[DVVState]("dvv", b), versionClock)
}

func versionClock(v *DVVVersion) *dvv.Clock { return &v.Clock }

func (dvvMech) EncodeState(w *codec.Writer, s State) {
	st := mustState[DVVState]("dvv", s)
	w.Uvarint(uint64(len(st)))
	for _, v := range st {
		codec.EncodeClock(w, v.Clock)
		w.BytesField(v.Value)
	}
}

func (dvvMech) DecodeState(r *codec.Reader) (State, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(r.Remaining()) {
		return nil, codec.ErrCorrupt
	}
	out := make(DVVState, 0, n)
	for i := uint64(0); i < n; i++ {
		c := codec.DecodeClock(r)
		val := r.BytesField()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out = append(out, DVVVersion{Value: val, Clock: c})
	}
	return out, nil
}

func (dvvMech) EncodeContext(w *codec.Writer, c Context) {
	codec.EncodeVV(w, c.(vv.VV))
}

func (dvvMech) DecodeContext(r *codec.Reader) (Context, error) {
	v := codec.DecodeVV(r)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if v == nil {
		v = vv.New()
	}
	return v, nil
}

func (dvvMech) MetadataBytes(s State) int {
	st := mustState[DVVState]("dvv", s)
	n := 0
	for _, v := range st {
		n += codec.ClockSize(v.Clock)
	}
	return n
}

func (dvvMech) ContextBytes(c Context) int {
	return codec.VVSize(c.(vv.VV))
}

func (dvvMech) Siblings(s State) int {
	return len(mustState[DVVState]("dvv", s))
}
