// The in-memory constructors and the helpers shared by the engine and its
// callers: hashing, exact state comparison and the Stats counters.

package storage

import (
	"bytes"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
)

// DefaultShards is the shard count used by New and by Open when
// Options.Shards is zero. Sized for tens of concurrent request-handler
// goroutines; must be a power of two.
const DefaultShards = 64

// New creates an empty in-memory engine with DefaultShards shards.
func New(mech core.Mechanism) *Tiered {
	return NewSharded(mech, DefaultShards)
}

// NewSharded creates an empty in-memory engine — no directory, every state
// resident, nothing survives the process — with the given shard count,
// rounded up to the next power of two (minimum 1). A single-shard engine
// is the one-lock contention baseline for benchmarks.
func NewSharded(mech core.Mechanism, shards int) *Tiered {
	return newTiered(mech, shards, math.MaxInt64)
}

// fnv64a is FNV-1a, inlined to keep key hashing allocation-free on the
// request path. One implementation serves both the key→shard map and the
// state-divergence hash.
func fnv64a[T ~string | ~[]byte](v T) uint64 {
	h := uint64(14695981039346656037) // offset basis
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 1099511628211 // prime
	}
	return h
}

// EncodeStateEqual reports whether two states have identical canonical
// encodings, using pooled scratch writers — an exact compare, not a hash
// (the node's hint-retirement check).
func EncodeStateEqual(m core.Mechanism, a, b core.State) bool {
	wa, wb := codec.GetPooledWriter(), codec.GetPooledWriter()
	m.EncodeState(wa, a)
	m.EncodeState(wb, b)
	same := bytes.Equal(wa.Bytes(), wb.Bytes())
	codec.PutPooledWriter(wa)
	codec.PutPooledWriter(wb)
	return same
}

// HashEncoded returns the FNV-1a hash of an encoded state — the one
// divergence-detection hash used across the engine and the node's read
// and anti-entropy paths.
func HashEncoded(b []byte) uint64 {
	return fnv64a(b)
}

// HashState hashes a state's canonical encoding with HashEncoded. A nil
// state hashes to 0, matching KeyHash's convention for missing keys, so a
// hash taken from Snapshot compares directly against a peer's KeyHash.
func HashState(m core.Mechanism, st core.State) uint64 {
	if st == nil {
		return 0
	}
	// The encoded bytes never leave this call, so the shared pooled
	// writer is reusable the moment the hash is computed.
	w := codec.GetPooledWriter()
	m.EncodeState(w, st)
	h := HashEncoded(w.Bytes())
	codec.PutPooledWriter(w)
	return h
}

// Stats reports operation counters. The WAL and segment fields stay zero
// on an engine with no directory.
type Stats struct {
	Engine            string
	Puts, Gets, Syncs uint64
	Keys              int

	// WALAppends counts records written ahead of installs; WALSyncs counts
	// fsync calls (group commit makes WALSyncs ≤ WALAppends under
	// concurrency); Checkpoints counts completed checkpoints.
	WALAppends, WALSyncs uint64
	Checkpoints          uint64

	// Cache counters. CacheBytes is the resident hot-set size (bounded by
	// the memory budget under EngineTiered); CacheHits/CacheMisses
	// classify reads by whether the state was hot; Spills counts dirty
	// states written to segments, by eviction or checkpoint; Faults counts
	// cold states read back from segments; Segments is the number of
	// on-disk segment files.
	CacheBytes             int64
	CacheHits, CacheMisses uint64
	Spills, Faults         uint64
	Segments               int
}
