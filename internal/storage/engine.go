// Package storage is a replica's local multi-version store: every key
// holds a mechanism-owned sibling state (concurrent versions plus their
// causal metadata), and remote states merge in through the mechanism's
// Sync. The store is mechanism-generic — the same engine backs a DVV
// replica, a client-VV replica or the causal-history oracle — and is safe
// for concurrent use by a replica's request handlers and anti-entropy
// loop.
//
// One type implements the Engine contract: *Tiered (tiered.go), whose keys
// hash (FNV-1a) onto a power-of-two array of lock shards. With no data
// directory (New, NewSharded, Open without Dir) every state stays resident
// and nothing survives the process. With one, every mutation is written
// ahead to a log, and Options.Engine either keeps every state resident or
// bounds them to a byte budget and spills the rest to segments.
//
// Whole-store operations (Keys, TreeBucketKeys) walk the shards one at a
// time, so they are per-shard-consistent rather than a point-in-time
// snapshot; the anti-entropy and accounting paths that use them reconverge
// on the next round.
package storage

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
)

// Residency policies accepted by Options.Engine and the -engine CLI flags.
// They differ only in the engine's byte budget.
const (
	EngineMemory = "memory"
	EngineTiered = "tiered"
)

// DefaultMemBudget is the tiered engine's hot-cache byte budget when
// Options.MemBudget is zero.
const DefaultMemBudget = 64 << 20 // 64 MiB

// Options parameterises Open.
type Options struct {
	// Engine selects the residency policy. EngineMemory (or empty) gives
	// the cache no byte budget: nothing is evicted. EngineTiered bounds
	// the resident states to MemBudget bytes and spills the rest to
	// segments, so it needs Dir. After a restart both come back cold: a
	// write faults its key's state back in, while reads (Snapshot,
	// EncodeKey, Siblings) serve a cold state from its segment without
	// installing it.
	Engine string
	// Dir is the data directory (created if missing). Empty opens an
	// in-memory engine: no log, no segments, nothing survives the
	// process, and Faults and Fsync are ignored.
	Dir string
	// Shards is the lock-shard count (0 = DefaultShards).
	Shards int
	// MemBudget bounds the hot-cache bytes under EngineTiered
	// (0 = DefaultMemBudget; ignored under EngineMemory).
	MemBudget int64
	// Faults, when non-nil, attaches a schedulable transient disk-fault
	// injector (fsync stalls, bounded append failures) to the engine's
	// WAL at open — the nemesis experiments' slow-disk hook. See
	// fault.go; equivalent to calling InjectFaults after Open.
	Faults *Faults
	// Fsync makes every WAL group-commit batch fsync before the mutation
	// is acknowledged; off, appends are buffered writes and a crash can
	// lose the un-synced tail (never a torn half-state: replay still
	// recovers a clean record prefix).
	//
	// CAUTION: with Fsync off the lost tail can include writes that were
	// acked AND replicated, so a recovered replica's per-key dot counters
	// can regress below dots its peers already hold — its next write
	// re-mints such a dot with a different value, and Sync (which assumes
	// dots are globally unique) silently keeps one side. That is the
	// paper-correctness hazard the WAL exists to prevent; the E2 crash
	// oracle (zero lost acked writes, zero duplicate dots) is only
	// guaranteed with Fsync on. Leave it on unless the workload can
	// tolerate post-crash causality corruption, not just lost writes.
	Fsync bool
}

// RecoveryInfo describes what Open found on disk.
type RecoveryInfo struct {
	SnapshotKeys int   // keys indexed from the spill segments
	WALRecords   int   // records replayed from wal.prev + wal.log
	TornBytes    int64 // torn-tail bytes discarded (WAL and segment files)
}

// Engine is the exact surface the replica server (internal/node) consumes
// from its local store, so the node, cluster, sim and CLI layers hold an
// Engine without knowing its residency. *Tiered is its one
// implementation, and the conformance suite runs the contract tests over
// each residency. All methods are safe for concurrent use. With a data
// directory the mutation methods follow the write-ahead discipline:
// returning nil means the mutation is durable, and a failed append leaves
// memory untouched.
type Engine interface {
	// Name identifies the engine: "memory" with no directory, "tiered"
	// with one, whatever its residency policy.
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

	// The durability surface below does nothing on an engine with no
	// directory.

	// Recovery returns what opening found on disk.
	Recovery() RecoveryInfo
	// WALSize returns the write-ahead log's logical offset in bytes.
	WALSize() int64
	// FailWALAt arms the WAL crash failpoint (experiments only).
	FailWALAt(offset int64, onCrash func())
	// InjectFaults attaches a schedulable transient disk-fault injector
	// — fsync stalls, bounded append failures — to the engine's WAL
	// (experiments only). See fault.go.
	InjectFaults(f *Faults)
	// Checkpoint compacts the log so recovery replays little or nothing.
	Checkpoint() error
	// Close flushes and closes the engine.
	Close() error
}

var _ Engine = (*Tiered)(nil)

// Open returns the engine o describes: in memory when o.Dir is empty,
// otherwise created (or recovered) in o.Dir, with the byte budget o.Engine
// selects — none under EngineMemory (or empty), o.MemBudget under
// EngineTiered.
func Open(mech core.Mechanism, o Options) (Engine, error) {
	budget := int64(math.MaxInt64) // whole keyspace resident: nothing is evicted
	switch o.Engine {
	case "", EngineMemory:
	case EngineTiered:
		if o.Dir == "" {
			return nil, errors.New("storage: open: the tiered policy needs a data dir")
		}
		budget = o.MemBudget
		if budget <= 0 {
			budget = DefaultMemBudget
		}
	default:
		return nil, fmt.Errorf("storage: unknown engine %q (want %s or %s)", o.Engine, EngineMemory, EngineTiered)
	}
	shards := o.Shards
	if shards < 1 {
		shards = DefaultShards
	}
	t := newTiered(mech, shards, budget)
	if o.Dir == "" {
		return t, nil
	}
	if err := t.open(o); err != nil {
		return nil, err
	}
	if o.Faults != nil {
		t.InjectFaults(o.Faults)
	}
	return t, nil
}
