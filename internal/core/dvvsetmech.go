package core

import (
	"repro/internal/codec"
	"repro/internal/dot"
	"repro/internal/dvvset"
	"repro/internal/vv"
)

type dvvsetMech struct{}

// NewDVVSet returns the dotted-version-vector-set mechanism: the compact
// follow-on form where a whole sibling set is one clock with a single
// (id, counter, values) triple per replica server. Same precision as DVV,
// strictly less metadata — the ablation of experiment A1.
func NewDVVSet() Mechanism { return dvvsetMech{} }

func (dvvsetMech) Name() string { return "dvvset" }

func (dvvsetMech) NewState() State { return dvvset.New[[]byte]() }

func (dvvsetMech) EmptyContext() Context { return vv.New() }

func (dvvsetMech) JoinContexts(a, b Context) (Context, error) {
	va, err := ctxOrErr[vv.VV]("dvvset", a)
	if err != nil {
		return nil, err
	}
	vb, err := ctxOrErr[vv.VV]("dvvset", b)
	if err != nil {
		return nil, err
	}
	return vv.Join(va, vb), nil
}

func (dvvsetMech) DescendsContext(a, b Context) (bool, error) {
	va, err := ctxOrErr[vv.VV]("dvvset", a)
	if err != nil {
		return false, err
	}
	vb, err := ctxOrErr[vv.VV]("dvvset", b)
	if err != nil {
		return false, err
	}
	return va.Descends(vb), nil
}

func (dvvsetMech) Read(s State) ReadResult {
	st := mustState[*dvvset.Set[[]byte]]("dvvset", s)
	return ReadResult{Values: st.Values(), Ctx: st.Join()}
}

func (dvvsetMech) Put(s State, c Context, value []byte, w WriteInfo) (State, error) {
	st := mustState[*dvvset.Set[[]byte]]("dvvset", s)
	ctx, err := ctxOrErr[vv.VV]("dvvset", c)
	if err != nil {
		return nil, err
	}
	ns := st.Clone()
	ns.Update(ctx, value, w.Server)
	return ns, nil
}

func (dvvsetMech) Sync(a, b State) State {
	sa := mustState[*dvvset.Set[[]byte]]("dvvset", a)
	sb := mustState[*dvvset.Set[[]byte]]("dvvset", b)
	out := sa.Clone()
	out.Sync(sb)
	return out
}

func (dvvsetMech) EncodeState(w *codec.Writer, s State) {
	st := mustState[*dvvset.Set[[]byte]]("dvvset", s)
	entries := st.Entries()
	w.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.String(string(e.ID))
		w.Uvarint(e.N)
		w.Uvarint(uint64(len(e.Vals)))
		for _, v := range e.Vals {
			w.BytesField(v)
		}
	}
}

func (dvvsetMech) DecodeState(r *codec.Reader) (State, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(r.Remaining()) {
		return nil, codec.ErrCorrupt
	}
	// Rebuild through a valueless set then sync entries in, keeping the
	// package's canonical invariants enforced in one place.
	entries := make([]dvvset.Entry[[]byte], 0, n)
	for i := uint64(0); i < n; i++ {
		id := r.String()
		cnt := r.Uvarint()
		nv := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if nv > uint64(r.Remaining()) {
			return nil, codec.ErrCorrupt
		}
		vals := make([][]byte, 0, nv)
		for j := uint64(0); j < nv; j++ {
			vals = append(vals, r.BytesField())
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if id == "" || cnt < nv {
			return nil, codec.ErrCorrupt
		}
		entries = append(entries, dvvset.Entry[[]byte]{ID: dot.ID(id), N: cnt, Vals: vals})
	}
	st, err := dvvset.FromEntries(entries)
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (dvvsetMech) EncodeContext(w *codec.Writer, c Context) {
	codec.EncodeVV(w, c.(vv.VV))
}

func (dvvsetMech) DecodeContext(r *codec.Reader) (Context, error) {
	v := codec.DecodeVV(r)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if v == nil {
		v = vv.New()
	}
	return v, nil
}

func (dvvsetMech) MetadataBytes(s State) int {
	st := mustState[*dvvset.Set[[]byte]]("dvvset", s)
	w := codec.NewWriter(64)
	for _, e := range st.Entries() {
		w.String(string(e.ID))
		w.Uvarint(e.N)
		w.Uvarint(uint64(len(e.Vals)))
	}
	return w.Len()
}

func (dvvsetMech) ContextBytes(c Context) int {
	return codec.VVSize(c.(vv.VV))
}

func (dvvsetMech) Siblings(s State) int {
	return mustState[*dvvset.Set[[]byte]]("dvvset", s).Len()
}
