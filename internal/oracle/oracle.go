// Package oracle replays identical operation traces over different
// causality mechanisms and measures where they disagree with the exact
// causal-history semantics. It is the instrument behind the paper's safety
// arguments: server-entry VVs lose concurrent updates (Figure 1b), pruned
// client-entry VVs resurrect overwritten siblings or drop live ones, and
// DVV tracks the oracle exactly with bounded metadata.
//
// The model is a single logical key replicated over a fixed set of replica
// servers. A trace is a sequence of client puts and pairwise replica
// syncs. Clients follow the session discipline of real stores
// (read-your-writes: a session's context always covers its own previous
// writes); staleness comes from writing through replicas that have not yet
// synced, and from clients that skip the fresh read before writing.
package oracle

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dot"
)

// OpKind distinguishes trace operations.
type OpKind int

// Trace operation kinds.
const (
	OpPut  OpKind = iota + 1 // a client write through one replica
	OpSync                   // pairwise anti-entropy between two replicas
)

// CtxMode says which causal context a put presents.
type CtxMode int

// Context modes for puts.
const (
	// CtxFresh reads the coordinating replica first and merges the result
	// into the session context (read-modify-write).
	CtxFresh CtxMode = iota + 1
	// CtxSession presents only the session's accumulated context — the
	// client writes without re-reading (the racing case).
	CtxSession
)

// Op is one trace step. For OpPut, Replica coordinates, Client writes and
// Mode picks the context. For OpSync, Replica pulls from Peer (and the
// runner also pushes the merged state back, modelling bidirectional
// anti-entropy).
type Op struct {
	Kind    OpKind
	Replica int
	Peer    int
	Client  dot.ID
	Mode    CtxMode
	Value   []byte
}

// Run is a replay of one trace under one mechanism.
type Run struct {
	Mech     core.Mechanism
	Servers  []dot.ID
	States   []core.State
	sessions map[dot.ID]core.Context

	// MaxMetadataBytes is the largest per-replica causal metadata size
	// observed at any step (all siblings of the key together).
	MaxMetadataBytes int
	// MaxVersionBytes is the largest *per-version average* metadata size
	// observed (state metadata / sibling count) — the paper's space
	// claim: for DVV this is bounded by the replica count no matter how
	// many clients write; for client-entry VVs it grows with the number
	// of writers.
	MaxVersionBytes int
	// MaxSiblings is the largest sibling count observed at any step.
	MaxSiblings int
	// Puts counts applied writes.
	Puts int
}

// NewRun prepares a replay over nReplicas replicas named "S0".."Sn-1".
func NewRun(m core.Mechanism, nReplicas int) *Run {
	servers := make([]dot.ID, nReplicas)
	states := make([]core.State, nReplicas)
	for i := range servers {
		servers[i] = dot.ID(fmt.Sprintf("S%d", i))
		states[i] = m.NewState()
	}
	return &Run{
		Mech:     m,
		Servers:  servers,
		States:   states,
		sessions: make(map[dot.ID]core.Context),
	}
}

// sessionCtx returns the client's accumulated context (empty for a new
// session). Sessions always cover the client's own writes because every
// put folds the post-write context back in (read-your-writes).
func (r *Run) sessionCtx(client dot.ID) core.Context {
	if c, ok := r.sessions[client]; ok {
		return c
	}
	return r.Mech.EmptyContext()
}

// Step applies one operation.
func (r *Run) Step(op Op) error {
	switch op.Kind {
	case OpPut:
		if op.Replica < 0 || op.Replica >= len(r.States) {
			return fmt.Errorf("oracle: put replica %d out of range", op.Replica)
		}
		st := r.States[op.Replica]
		ctx := r.sessionCtx(op.Client)
		if op.Mode == CtxFresh {
			// Read-modify-write: join the fresh read into the session
			// context. The join (rather than replacement) preserves
			// read-your-writes when the coordinating replica has not yet
			// seen the client's previous write.
			fresh := r.Mech.Read(st).Ctx
			joined, err := r.Mech.JoinContexts(ctx, fresh)
			if err != nil {
				return fmt.Errorf("oracle: join contexts: %w", err)
			}
			ctx = joined
		}
		ns, err := r.Mech.Put(st, ctx, op.Value, core.WriteInfo{Server: r.Servers[op.Replica], Client: op.Client})
		if err != nil {
			return fmt.Errorf("oracle: put at replica %d: %w", op.Replica, err)
		}
		r.States[op.Replica] = ns
		// The server returns the post-write context (as Riak returns the
		// updated vclock); joining it in keeps the session covering the
		// client's own writes.
		post, err := r.Mech.JoinContexts(ctx, r.Mech.Read(ns).Ctx)
		if err != nil {
			return fmt.Errorf("oracle: adopt post-write context: %w", err)
		}
		r.sessions[op.Client] = post
		r.Puts++
	case OpSync:
		if op.Replica < 0 || op.Replica >= len(r.States) || op.Peer < 0 || op.Peer >= len(r.States) {
			return fmt.Errorf("oracle: sync %d<->%d out of range", op.Replica, op.Peer)
		}
		merged := r.Mech.Sync(r.States[op.Replica], r.States[op.Peer])
		r.States[op.Replica] = merged
		r.States[op.Peer] = merged
	default:
		return fmt.Errorf("oracle: unknown op kind %d", op.Kind)
	}
	for _, st := range r.States {
		b := r.Mech.MetadataBytes(st)
		s := r.Mech.Siblings(st)
		if b > r.MaxMetadataBytes {
			r.MaxMetadataBytes = b
		}
		if s > r.MaxSiblings {
			r.MaxSiblings = s
		}
		if s > 0 {
			if avg := b / s; avg > r.MaxVersionBytes {
				r.MaxVersionBytes = avg
			}
		}
	}
	return nil
}

// Replay applies a whole trace.
func (r *Run) Replay(trace []Op) error {
	for i, op := range trace {
		if err := r.Step(op); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	return nil
}

// Converge runs bidirectional syncs between all replica pairs until every
// replica holds the same value set (anti-entropy fixpoint). Two full
// pairwise sweeps suffice: the first accumulates everything into the last
// replica, the second spreads it back.
func (r *Run) Converge() {
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(r.States); i++ {
			for j := i + 1; j < len(r.States); j++ {
				merged := r.Mech.Sync(r.States[i], r.States[j])
				r.States[i] = merged
				r.States[j] = merged
			}
		}
	}
}

// Values returns the sorted distinct values visible at replica i.
func (r *Run) Values(i int) []string {
	vals := r.Mech.Read(r.States[i]).Values
	return sortedStrings(vals)
}

func sortedStrings(vals [][]byte) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v)
	}
	// insertion sort; sibling sets are small
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Anomalies quantifies a mechanism's divergence from the oracle on the
// same trace. Divergence is checked after *every step* at the replicas the
// step touched: a value can be lost mid-trace and later papered over by a
// legitimate dominating write, so final-state comparison alone under-counts
// (the Figure 1b loss is exactly of this transient-then-permanent kind).
type Anomalies struct {
	// LostUpdates counts distinct values that, at some step and replica,
	// the oracle retained as live siblings while the mechanism had
	// silently dropped them.
	LostUpdates int
	// FalseConcurrency counts distinct values the mechanism retained at
	// some step although the oracle shows them causally overwritten.
	FalseConcurrency int
	// FinalLost / FinalFalse are the same diffs on the converged final
	// states (permanent divergence).
	FinalLost  int
	FinalFalse int
	// MechSiblings and OracleSiblings are the converged sibling counts.
	MechSiblings   int
	OracleSiblings int
}

// Clean reports whether the mechanism matched the oracle exactly at every
// observed point.
func (a Anomalies) Clean() bool {
	return a.LostUpdates == 0 && a.FalseConcurrency == 0 &&
		a.FinalLost == 0 && a.FinalFalse == 0
}

// String summarises the anomaly counts.
func (a Anomalies) String() string {
	return fmt.Sprintf("lost=%d false-concurrent=%d final-lost=%d final-false=%d siblings=%d/%d",
		a.LostUpdates, a.FalseConcurrency, a.FinalLost, a.FinalFalse,
		a.MechSiblings, a.OracleSiblings)
}

func diffCounts(mech, oracle []string) (lost, falseConc []string) {
	mset := make(map[string]bool, len(mech))
	for _, v := range mech {
		mset[v] = true
	}
	oset := make(map[string]bool, len(oracle))
	for _, v := range oracle {
		oset[v] = true
	}
	for _, v := range oracle {
		if !mset[v] {
			lost = append(lost, v)
		}
	}
	for _, v := range mech {
		if !oset[v] {
			falseConc = append(falseConc, v)
		}
	}
	return lost, falseConc
}

// Compare replays trace step-for-step under mech and under the exact
// causal-history oracle, diffing the touched replicas after every step,
// then converges both and diffs the final states.
func Compare(mech core.Mechanism, trace []Op, nReplicas int) (Anomalies, error) {
	mr := NewRun(mech, nReplicas)
	or := NewRun(core.NewOracle(), nReplicas)
	var a Anomalies
	lostSeen := make(map[string]bool)
	falseSeen := make(map[string]bool)
	for i, op := range trace {
		if err := mr.Step(op); err != nil {
			return Anomalies{}, fmt.Errorf("mechanism %s step %d: %w", mech.Name(), i, err)
		}
		if err := or.Step(op); err != nil {
			return Anomalies{}, fmt.Errorf("oracle step %d: %w", i, err)
		}
		touched := []int{op.Replica}
		if op.Kind == OpSync {
			touched = append(touched, op.Peer)
		}
		for _, ri := range touched {
			lost, falseConc := diffCounts(mr.Values(ri), or.Values(ri))
			for _, v := range lost {
				if !lostSeen[v] {
					lostSeen[v] = true
					a.LostUpdates++
				}
			}
			for _, v := range falseConc {
				if !falseSeen[v] {
					falseSeen[v] = true
					a.FalseConcurrency++
				}
			}
		}
	}
	mr.Converge()
	or.Converge()
	mv, ov := mr.Values(0), or.Values(0)
	a.MechSiblings, a.OracleSiblings = len(mv), len(ov)
	lost, falseConc := diffCounts(mv, ov)
	a.FinalLost, a.FinalFalse = len(lost), len(falseConc)
	return a, nil
}

// TraceConfig parameterises random trace generation.
type TraceConfig struct {
	Ops      int     // total operations
	Replicas int     // replica servers
	Clients  int     // distinct client sessions
	PSync    float64 // probability an op is a replica sync
	PStale   float64 // probability a put skips the fresh read
}

// RandomTrace generates a reproducible random trace. Values are unique
// write identifiers ("w<seq>").
func RandomTrace(r *rand.Rand, cfg TraceConfig) []Op {
	if cfg.Replicas < 1 || cfg.Clients < 1 || cfg.Ops < 0 {
		return nil
	}
	trace := make([]Op, 0, cfg.Ops)
	seq := 0
	for i := 0; i < cfg.Ops; i++ {
		if cfg.Replicas > 1 && r.Float64() < cfg.PSync {
			a := r.Intn(cfg.Replicas)
			b := r.Intn(cfg.Replicas - 1)
			if b >= a {
				b++
			}
			trace = append(trace, Op{Kind: OpSync, Replica: a, Peer: b})
			continue
		}
		mode := CtxFresh
		if r.Float64() < cfg.PStale {
			mode = CtxSession
		}
		seq++
		trace = append(trace, Op{
			Kind:    OpPut,
			Replica: r.Intn(cfg.Replicas),
			Client:  dot.ID(fmt.Sprintf("c%03d", r.Intn(cfg.Clients))),
			Mode:    mode,
			Value:   []byte(fmt.Sprintf("w%04d", seq)),
		})
	}
	return trace
}
