// Engine is the pluggable storage contract: the exact surface the replica
// server (internal/node) consumes from its local store. Two engines
// implement it —
//
//	memory  (*Store)  — the sharded in-memory map, optionally durable
//	                    behind a WAL + atomic snapshots (Open, durable.go)
//	tiered  (*Tiered) — a memory-bounded cache over immutable on-disk
//	                    segments with incremental checkpoints (tiered.go)
//
// — so the node, cluster, sim and CLI layers select an engine by name
// without knowing its representation, and the conformance suite runs the
// same contract tests over both.
package storage

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
)

// Engine names accepted by Options.Engine and the -engine CLI flags.
const (
	EngineMemory = "memory"
	EngineTiered = "tiered"
)

// DefaultMemBudget is the tiered engine's hot-cache byte budget when
// Options.MemBudget is zero.
const DefaultMemBudget = 64 << 20 // 64 MiB

// Engine is a replica's local multi-version store. All methods are safe
// for concurrent use. The mutation methods follow the write-ahead
// discipline on durable engines: returning nil means the mutation is
// durable, and a failed append leaves memory untouched.
type Engine interface {
	// Name identifies the engine kind (EngineMemory or EngineTiered).
	Name() string
	// Mechanism returns the causality mechanism states belong to.
	Mechanism() core.Mechanism

	// Get returns the sibling values and causal context for key.
	Get(key string) (core.ReadResult, bool)
	// Put applies a client write and returns the post-write read result.
	Put(key string, ctx core.Context, value []byte, w core.WriteInfo) (core.ReadResult, error)
	// SyncKey merges a remote state for key into the local one.
	SyncKey(key string, remote core.State) error
	// Snapshot returns key's current state. It may be the installed state
	// itself: callers read, encode and merge it but never mutate it.
	Snapshot(key string) (core.State, bool)

	// Keys returns all keys, sorted.
	Keys() []string
	// Len returns the number of keys (O(1): engines keep counters).
	Len() int
	// MetadataBytes returns the encoded causal-metadata size for key.
	MetadataBytes(key string) int
	// TotalMetadataBytes sums metadata across all keys (O(1) counters).
	TotalMetadataBytes() int
	// Siblings returns the sibling count for key.
	Siblings(key string) int
	// KeyHash returns the divergence-detection hash of key's state.
	KeyHash(key string) uint64
	// TreeDigest returns the incrementally-maintained Merkle tree hash at
	// (level, index): level 0 is the antientropy.TreeLeaves leaf buckets,
	// antientropy.TreeRootLevel() the root. Maintained at every install
	// site under the shard lock, so reads are cheap — a converged
	// anti-entropy tick is one root compare, not a keyspace walk.
	TreeDigest(level, index int) uint64
	// TreeBucketKeys lists the keys in one Merkle leaf bucket, sorted, in
	// O(bucket members) — the descent's final step when a leaf differs.
	TreeBucketKeys(bucket int) []string
	// EncodeKey appends key's state to w; reports whether the key existed.
	EncodeKey(key string, w *codec.Writer) bool

	// Stats returns a snapshot of the engine's counters.
	Stats() Stats

	// Recovery returns what opening found on disk.
	Recovery() RecoveryInfo
	// WALSize returns the write-ahead log's logical offset in bytes.
	WALSize() int64
	// FailWALAt arms the WAL crash failpoint (experiments only).
	FailWALAt(offset int64, onCrash func())
	// InjectFaults attaches a schedulable transient disk-fault injector
	// — fsync stalls, bounded append failures — to the engine's WAL
	// (experiments only; a no-op on non-durable stores). See fault.go.
	InjectFaults(f *Faults)
	// Checkpoint compacts the log so recovery replays little or nothing.
	Checkpoint() error
	// Close flushes and closes the engine.
	Close() error
}

// Interface conformance.
var (
	_ Engine = (*Store)(nil)
	_ Engine = (*Tiered)(nil)
)

// Open creates (or recovers) a durable engine in o.Dir. The engine kind is
// selected by o.Engine (empty means EngineMemory, the map engine behind a
// WAL and atomic snapshots; EngineTiered is the memory-bounded cache over
// spill segments).
func Open(mech core.Mechanism, o Options) (Engine, error) {
	var (
		e   Engine
		err error
	)
	switch o.Engine {
	case "", EngineMemory:
		e, err = openStore(mech, o)
	case EngineTiered:
		e, err = openTiered(mech, o)
	default:
		return nil, fmt.Errorf("storage: unknown engine %q (want %s or %s)", o.Engine, EngineMemory, EngineTiered)
	}
	if err != nil {
		return nil, err
	}
	if o.Faults != nil {
		e.InjectFaults(o.Faults)
	}
	return e, nil
}
