// Package core defines the mechanism-generic causality kernel — the
// contract every causality-tracking scheme in this repository implements,
// so that one storage engine, one replica server and one experiment harness
// can run unchanged over:
//
//   - dotted version vectors (the paper's contribution),
//   - dotted version vector *sets* (the compact follow-on form),
//   - version vectors with one entry per client (Riak ≤1.x style, precise
//     but unbounded),
//   - the same with optimistic pruning (bounded but unsafe),
//   - version vectors with one entry per server (Coda/Ficus style, compact
//     but imprecise — Figure 1b's failure),
//   - explicit causal histories (the exact but ever-growing oracle).
//
// A Mechanism owns an opaque per-key replica State (the sibling set plus
// whatever bookkeeping the scheme needs) and an opaque causal Context
// (what a reader learns and presents back on writes). The three kernel
// operations mirror the companion report: Read, Put (discard + tag) and
// Sync (replica merge).
package core

import (
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/dot"
)

// State is a mechanism-owned per-key replica state. States must only be
// passed back to the mechanism that created them; doing otherwise is a
// programming error and panics with a descriptive message.
type State any

// Context is a mechanism-owned causal context: what a client learned from a
// read and must present on its next write. The empty context (blind write)
// is produced by EmptyContext.
type Context any

// ReadResult is what a client GET observes: the concurrent sibling values
// and the causal context covering them.
type ReadResult struct {
	Values [][]byte
	Ctx    Context
}

// WriteInfo identifies the parties to a PUT: the coordinating replica
// server and the writing client. DVV and server-VV consume Server; the
// per-client schemes consume Client; the oracle uses Server for event ids.
//
// Stamp is the coordinator's wall-clock time (unix nanos) at dot
// issuance — deliberately consumed by NO mechanism. Causality here is
// tracked entirely by (server, counter) dots, so a skewed clock cannot
// forge, hide or reorder causal history; the clock-skew nemesis drives
// Stamp through ±30s offsets and asserts exactly that. It exists so the
// proof is structural (the field is there to misuse, and nothing does)
// and for operational logging.
type WriteInfo struct {
	Server dot.ID
	Client dot.ID
	Stamp  int64
}

// ErrBadContext reports a context value of the wrong dynamic type for the
// mechanism (e.g. decoded from a corrupt message).
var ErrBadContext = errors.New("core: context type does not match mechanism")

// Mechanism is a causality-tracking scheme. Implementations are stateless
// (all per-key state lives in State values), so a single Mechanism value is
// safe for concurrent use by any number of replicas.
//
// A State is immutable once a mechanism returns it: Put and Sync build
// their result without writing to any input (they may share unchanged
// versions, values and clocks with their inputs), and no caller mutates a
// state or the values Read returns from it. So one state can be read,
// encoded and merged by any number of goroutines while a newer one is
// installed in its place — the storage engines hand out their installed
// state without copying it.
type Mechanism interface {
	// Name identifies the mechanism in tables and CLI flags.
	Name() string

	// NewState returns the empty per-key state.
	NewState() State

	// Read returns the current sibling values and the causal context a
	// client must present to overwrite them. The values are the state's
	// own slices, not copies.
	Read(State) ReadResult

	// Put applies a client write: siblings covered by ctx are discarded,
	// the new value is tagged and retained alongside surviving concurrent
	// siblings. Returns the new state; st is not modified.
	Put(st State, ctx Context, value []byte, w WriteInfo) (State, error)

	// Sync merges two replica states of the same key (anti-entropy /
	// replication). Inputs are not modified.
	Sync(a, b State) State

	// EmptyContext returns the context of a blind write.
	EmptyContext() Context

	// JoinContexts returns the least context covering both inputs. Client
	// sessions use it to keep read-your-writes across coordinators: the
	// presented context is the join of the session's accumulated context
	// and the fresh read. Inputs are not modified.
	JoinContexts(a, b Context) (Context, error)

	// DescendsContext reports whether a covers b: every event b has seen
	// is in a's causal past. Coordinators use it to enforce session
	// floors — a read satisfies a session iff the context it returns
	// descends the context the session presented. Inputs are not
	// modified.
	DescendsContext(a, b Context) (bool, error)

	// EncodeState / DecodeState round-trip the full state (values and
	// metadata) through the wire codec.
	EncodeState(*codec.Writer, State)
	DecodeState(*codec.Reader) (State, error)

	// EncodeContext / DecodeContext round-trip a context.
	EncodeContext(*codec.Writer, Context)
	DecodeContext(*codec.Reader) (Context, error)

	// MetadataBytes returns the exact encoded size of the state's causal
	// metadata only (clocks, not values) — the paper's measured quantity.
	MetadataBytes(State) int

	// ContextBytes returns the exact encoded size of a context.
	ContextBytes(Context) int

	// Siblings returns the number of concurrent versions retained.
	Siblings(State) int
}

// mustState asserts the dynamic type of a state, panicking with a clear
// diagnostic on cross-mechanism misuse (an unrecoverable programming
// error, not a runtime condition).
func mustState[T any](mech string, s State) T {
	v, ok := s.(T)
	if !ok {
		panic(fmt.Sprintf("core: %s received foreign state of type %T", mech, s))
	}
	return v
}

// ctxOrErr asserts the dynamic type of a context, returning ErrBadContext
// for foreign values (contexts cross the wire, so this is a runtime
// condition, not a panic).
func ctxOrErr[T any](mech string, c Context) (T, error) {
	v, ok := c.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("%w: %s got %T", ErrBadContext, mech, c)
	}
	return v, nil
}

// Registry returns the standard mechanism set used by the experiments,
// keyed by name. PrunedClientVV instances for several caps are included.
func Registry() map[string]Mechanism {
	ms := []Mechanism{
		NewDVV(),
		NewDVVSet(),
		NewClientVV(),
		NewServerVV(),
		NewPrunedClientVV(8),
		NewVVE(),
		NewOracle(),
	}
	out := make(map[string]Mechanism, len(ms))
	for _, m := range ms {
		out[m.Name()] = m
	}
	return out
}
