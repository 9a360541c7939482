package core

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/dot"
	"repro/internal/vv"
)

// VVVersion is one sibling under any plain-version-vector mechanism.
type VVVersion struct {
	Value []byte
	Tag   vv.VV
}

// VVState is a sibling set of VV-tagged versions.
type VVState []VVVersion

// vvKernel hosts the operations shared by the three VV mechanisms; the
// tagging rule (what the new version's vector is, and which siblings it
// discards) is what differs.
type vvKernel struct{ name string }

func (k vvKernel) NewState() State { return VVState(nil) }

func (k vvKernel) EmptyContext() Context { return vv.New() }

func (k vvKernel) JoinContexts(a, b Context) (Context, error) {
	va, err := ctxOrErr[vv.VV](k.name, a)
	if err != nil {
		return nil, err
	}
	vb, err := ctxOrErr[vv.VV](k.name, b)
	if err != nil {
		return nil, err
	}
	return vv.Join(va, vb), nil
}

func (k vvKernel) DescendsContext(a, b Context) (bool, error) {
	va, err := ctxOrErr[vv.VV](k.name, a)
	if err != nil {
		return false, err
	}
	vb, err := ctxOrErr[vv.VV](k.name, b)
	if err != nil {
		return false, err
	}
	return va.Descends(vb), nil
}

func (k vvKernel) Read(s State) ReadResult {
	st := mustState[VVState](k.name, s)
	vals := make([][]byte, len(st))
	ctx := vv.New()
	for i, v := range st {
		vals[i] = v.Value
		ctx.Merge(v.Tag)
	}
	return ReadResult{Values: vals, Ctx: ctx}
}

// insert adds nv to the sibling set, discarding versions dominated by (or
// equal to) nv's tag and dropping nv if an existing version dominates it.
func insertVV(st VVState, nv VVVersion) VVState {
	out := make(VVState, 0, len(st)+1)
	out = append(out, nv)
	for _, v := range st {
		switch v.Tag.Compare(nv.Tag) {
		case vv.After:
			// Existing version dominates the newcomer: keep the old set.
			return st
		case vv.ConcurrentOrder:
			out = append(out, v)
		}
		// Before or Equal: discarded.
	}
	return out
}

func (k vvKernel) Sync(a, b State) State {
	sa := mustState[VVState](k.name, a)
	sb := mustState[VVState](k.name, b)
	out := make(VVState, 0, len(sa)+len(sb))
	dominatedOrDup := func(v VVVersion, set VVState, strict bool) bool {
		for _, o := range set {
			switch v.Tag.Compare(o.Tag) {
			case vv.Before:
				return true
			case vv.Equal:
				if strict {
					return true
				}
			}
		}
		return false
	}
	for _, v := range sa {
		if !dominatedOrDup(v, sb, false) {
			out = append(out, v)
		}
	}
	for _, v := range sb {
		if !dominatedOrDup(v, sa, false) && !dominatedOrDup(v, out, true) {
			out = append(out, v)
		}
	}
	sortVVState(out)
	return out
}

func sortVVState(st VVState) {
	sort.Slice(st, func(i, j int) bool {
		a, b := st[i].Tag.String(), st[j].Tag.String()
		if a != b {
			return a < b
		}
		return string(st[i].Value) < string(st[j].Value)
	})
}

func (k vvKernel) EncodeState(w *codec.Writer, s State) {
	st := mustState[VVState](k.name, s)
	w.Uvarint(uint64(len(st)))
	for _, v := range st {
		codec.EncodeVV(w, v.Tag)
		w.BytesField(v.Value)
	}
}

func (k vvKernel) DecodeState(r *codec.Reader) (State, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(r.Remaining()) {
		return nil, codec.ErrCorrupt
	}
	out := make(VVState, 0, n)
	for i := uint64(0); i < n; i++ {
		tag := codec.DecodeVV(r)
		val := r.BytesField()
		if r.Err() != nil {
			return nil, r.Err()
		}
		out = append(out, VVVersion{Value: val, Tag: tag})
	}
	return out, nil
}

func (k vvKernel) EncodeContext(w *codec.Writer, c Context) {
	codec.EncodeVV(w, c.(vv.VV))
}

func (k vvKernel) DecodeContext(r *codec.Reader) (Context, error) {
	v := codec.DecodeVV(r)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if v == nil {
		v = vv.New()
	}
	return v, nil
}

func (k vvKernel) MetadataBytes(s State) int {
	st := mustState[VVState](k.name, s)
	n := 0
	for _, v := range st {
		n += codec.VVSize(v.Tag)
	}
	return n
}

func (k vvKernel) ContextBytes(c Context) int { return codec.VVSize(c.(vv.VV)) }

func (k vvKernel) Siblings(s State) int {
	return len(mustState[VVState](k.name, s))
}

// ---------------------------------------------------------------------------
// Client-entry version vectors (Riak ≤1.x): precise, unbounded.
// ---------------------------------------------------------------------------

type clientVV struct{ vvKernel }

// NewClientVV returns the one-entry-per-client version vector mechanism:
// causally precise (each writer has its own entry) but with metadata that
// grows with the number of distinct clients that ever wrote the key — the
// scheme the paper calls "inefficient as VV can grow very large".
//
// Correctness requires the session discipline real deployments rely on:
// a client's presented context must cover its own previous writes
// (read-your-writes). The client's next event is then ctx[client]+1,
// globally unique and with exactly the right causal past. A client that
// presents a context missing its own last write can mint a duplicate
// event — one of the operational hazards that motivated DVVs.
func NewClientVV() Mechanism { return clientVV{vvKernel{name: "clientvv"}} }

func (m clientVV) Name() string { return m.name }

func (m clientVV) Put(s State, c Context, value []byte, w WriteInfo) (State, error) {
	st := mustState[VVState](m.name, s)
	ctx, err := ctxOrErr[vv.VV](m.name, c)
	if err != nil {
		return nil, err
	}
	tag := ctx.Clone()
	tag.Set(w.Client, ctx.Get(w.Client)+1)
	return insertVV(st, VVVersion{Value: value, Tag: tag}), nil
}

// ---------------------------------------------------------------------------
// Server-entry version vectors (Coda/Ficus/Locus style): compact, imprecise.
// ---------------------------------------------------------------------------

type serverVV struct{ vvKernel }

// NewServerVV returns the one-entry-per-server version vector mechanism.
// The coordinating server advances its own entry past everything it has
// seen, so a write racing another through the same server produces a tag
// that *falsely dominates* the earlier concurrent write — Figure 1b's
// "[2,0] < [3,0]" problem. Kept as the paper's negative baseline; the
// oracle experiments count the updates it silently loses.
func NewServerVV() Mechanism { return serverVV{vvKernel{name: "servervv"}} }

func (m serverVV) Name() string { return m.name }

func (m serverVV) Put(s State, c Context, value []byte, w WriteInfo) (State, error) {
	st := mustState[VVState](m.name, s)
	ctx, err := ctxOrErr[vv.VV](m.name, c)
	if err != nil {
		return nil, err
	}
	n := ctx.Get(w.Server)
	for _, v := range st {
		if c := v.Tag.Get(w.Server); c > n {
			n = c
		}
	}
	tag := ctx.Clone()
	tag.Set(w.Server, n+1)
	return insertVV(st, VVVersion{Value: value, Tag: tag}), nil
}

// ---------------------------------------------------------------------------
// Pruned client version vectors (Riak's optimistic pruning): bounded, unsafe.
// ---------------------------------------------------------------------------

type prunedClientVV struct {
	clientVV
	cap int
}

// NewPrunedClientVV returns the client-VV mechanism with Riak-style
// optimistic pruning: whenever a tag exceeds cap entries, the entries with
// the smallest counters are dropped (Riak prunes by timestamp; counters
// are our deterministic stand-in). Pruning is exactly the unsafe practice
// the paper calls out — it forgets dots, which the oracle experiments
// observe as false concurrency and lost updates.
func NewPrunedClientVV(cap int) Mechanism {
	if cap < 1 {
		cap = 1
	}
	return prunedClientVV{clientVV: clientVV{vvKernel{name: fmt.Sprintf("prunedvv-%d", cap)}}, cap: cap}
}

func (m prunedClientVV) Name() string { return m.name }

// Cap returns the maximum number of vector entries kept per tag.
func (m prunedClientVV) Cap() int { return m.cap }

func (m prunedClientVV) Put(s State, c Context, value []byte, w WriteInfo) (State, error) {
	ns, err := m.clientVV.Put(s, c, value, w)
	if err != nil {
		return nil, err
	}
	// insertVV returns s itself when the newcomer is dominated, so prune
	// into a fresh set: the input must stay as it was.
	st := mustState[VVState](m.name, ns)
	out := make(VVState, len(st))
	for i, v := range st {
		out[i] = VVVersion{Value: v.Value, Tag: pruneVV(v.Tag, m.cap, w.Client)}
	}
	return out, nil
}

// pruneVV drops the lowest-counter entries beyond cap, never the writing
// client's own entry (Riak likewise protects the current actor).
func pruneVV(tag vv.VV, cap int, keep dot.ID) vv.VV {
	if tag.Len() <= cap {
		return tag
	}
	order := make([]vv.Entry, len(tag))
	copy(order, tag)
	sort.Slice(order, func(i, j int) bool {
		if order[i].N != order[j].N {
			return order[i].N < order[j].N
		}
		return order[i].ID < order[j].ID
	})
	pruned := tag.Clone()
	for _, e := range order {
		if pruned.Len() <= cap {
			break
		}
		if e.ID == keep {
			continue
		}
		pruned.Set(e.ID, 0)
	}
	return pruned
}
