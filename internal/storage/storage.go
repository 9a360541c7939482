// Package storage implements the replica-local multi-version store: every
// key holds a mechanism-owned sibling state (concurrent versions plus their
// causal metadata). The store is mechanism-generic — the same engine backs
// a DVV replica, a client-VV replica or the causal-history oracle — and is
// safe for concurrent use by the replica server's request handlers and
// anti-entropy loop.
//
// Internally the store is sharded: keys hash (FNV-1a) onto a fixed
// power-of-two array of shards, each guarded by its own RWMutex. Request
// handlers touching different shards never contend, and whole-store
// operations (Keys, TreeBucketKeys) walk the shards one at a time instead
// of stalling the entire store behind a single lock. The price is that
// whole-store reads are per-shard-consistent rather than a point-in-time
// snapshot of the full map — acceptable for the anti-entropy and
// accounting paths that use them, since every key's state is itself
// read under its shard lock and anti-entropy reconverges on the next
// round.
package storage

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/antientropy"
	"repro/internal/codec"
	"repro/internal/core"
)

// DefaultShards is the shard count used by New. Sized for tens of
// concurrent request-handler goroutines; must be a power of two.
const DefaultShards = 64

// shard is one lock domain: a slice of the keyspace with its own mutex.
type shard struct {
	mu   sync.RWMutex
	data map[string]core.State
	// hashes caches each key's KeyHash (the FNV of its canonical state
	// encoding), maintained at install time so KeyHash is an O(1) lookup
	// instead of an encode per call — the cost anti-entropy used to pay
	// for every key on every tick.
	hashes map[string]uint64
	// buckets indexes this shard's keys by Merkle leaf bucket
	// (append-only: keys are never deleted), so TreeBucketKeys lists a
	// divergent bucket's members in O(members) instead of filtering the
	// whole keyspace.
	buckets map[int][]string
}

// Store is a replica's local key-value state under one mechanism, purely
// in memory: nothing survives a restart. Durable replicas use the Tiered
// engine that Open returns.
type Store struct {
	mech core.Mechanism

	shards []shard
	mask   uint64

	// operation counters; atomics so reads never touch the shard locks.
	puts, gets, syncs atomic.Uint64

	// keyCount and metaBytes are maintained at install (Put and SyncKey),
	// so Len and TotalMetadataBytes are O(1) reads instead of all-shard
	// walks — every stats RPC and anti-entropy tick used to pay an
	// O(shards·keys) scan for them.
	keyCount  atomic.Int64
	metaBytes atomic.Int64

	// tree is the incrementally-maintained Merkle tree over key-state
	// hashes, updated at the same install sites (leaf XOR deltas are
	// lock-free, applied from inside the shard critical section), so
	// anti-entropy reads TreeDigest instead of rebuilding a digest from
	// every key.
	tree *antientropy.Tree
}

// New creates an empty store for the given mechanism with DefaultShards
// shards.
func New(mech core.Mechanism) *Store {
	return NewSharded(mech, DefaultShards)
}

// NewSharded creates an empty store with the given shard count, rounded up
// to the next power of two (minimum 1). A single-shard store degenerates
// to the classic one-big-RWMutex engine and exists as the contention
// baseline for benchmarks.
func NewSharded(mech core.Mechanism, shards int) *Store {
	if shards < 1 {
		shards = 1
	}
	n := 1 << bits.Len(uint(shards-1)) // next power of two ≥ shards
	s := &Store{
		mech:   mech,
		shards: make([]shard, n),
		mask:   uint64(n - 1),
		tree:   antientropy.NewTree(),
	}
	for i := range s.shards {
		s.shards[i].data = make(map[string]core.State)
		s.shards[i].hashes = make(map[string]uint64)
		s.shards[i].buckets = make(map[int][]string)
	}
	return s
}

// Name identifies the engine kind.
func (s *Store) Name() string { return EngineMemory }

// Mechanism returns the store's causality mechanism.
func (s *Store) Mechanism() core.Mechanism { return s.mech }

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

// shardFor maps a key onto its shard.
func (s *Store) shardFor(key string) *shard {
	return &s.shards[fnv64a(key)&s.mask]
}

// Get returns the sibling values and causal context for key. Missing keys
// return ok=false with an empty-context read result.
func (s *Store) Get(key string) (core.ReadResult, bool) {
	s.gets.Add(1)
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.data[key]
	if !ok {
		return core.ReadResult{Ctx: s.mech.EmptyContext()}, false
	}
	return s.mech.Read(st), true
}

// Put applies a client write to key and returns the post-write read result
// (values surviving plus the new context — what the server hands back to
// the client, Riak's return_body).
func (s *Store) Put(key string, ctx core.Context, value []byte, w core.WriteInfo) (core.ReadResult, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.data[key]
	oldMeta := 0
	if !ok {
		st = s.mech.NewState()
	} else {
		oldMeta = s.mech.MetadataBytes(st)
	}
	ns, err := s.mech.Put(st, ctx, value, w)
	if err != nil {
		return core.ReadResult{}, fmt.Errorf("storage: put %q: %w", key, err)
	}
	s.install(sh, key, ns, ok, oldMeta, HashState(s.mech, ns))
	s.puts.Add(1)
	return s.mech.Read(ns), nil
}

// install writes st into the shard map and keeps the O(1) key and
// metadata counters, the per-key hash cache and the Merkle tree in step.
// Called with the shard lock held; existed and oldMeta describe the entry
// being replaced; hash is st's KeyHash.
func (s *Store) install(sh *shard, key string, st core.State, existed bool, oldMeta int, hash uint64) {
	old := sh.hashes[key]
	sh.data[key] = st
	sh.hashes[key] = hash
	if !existed {
		s.keyCount.Add(1)
		b := antientropy.TreeBucketOf(key)
		sh.buckets[b] = append(sh.buckets[b], key)
	}
	s.metaBytes.Add(int64(s.mech.MetadataBytes(st) - oldMeta))
	s.tree.Update(key, old, existed, hash)
}

// SyncKey merges a remote state for key into the local one (replication
// and anti-entropy ingest path).
func (s *Store) SyncKey(key string, remote core.State) error {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.data[key]
	oldMeta := 0
	if !ok {
		st = s.mech.NewState()
	} else {
		oldMeta = s.mech.MetadataBytes(st)
	}
	merged := s.mech.Sync(st, remote)
	// Merging emptiness into an absent key must stay a no-op: installing
	// it would grow Len() and the key listing for a key that holds
	// nothing. Siblings and MetadataBytes are arithmetic (no encode), so
	// this costs the hot path nothing.
	if !ok && s.mech.Siblings(merged) == 0 && s.mech.MetadataBytes(merged) == 0 {
		return nil
	}
	s.install(sh, key, merged, ok, oldMeta, HashState(s.mech, merged))
	s.syncs.Add(1)
	return nil
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

// Snapshot returns key's installed state and whether the key exists. The
// state is shared, not copied: states are immutable (see core.Mechanism),
// and a later write installs a new one instead of changing it.
func (s *Store) Snapshot(key string) (core.State, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.data[key]
	if !ok {
		return nil, false
	}
	return st, true
}

// Keys returns all keys, sorted. The listing is assembled shard by shard,
// so keys inserted concurrently may or may not appear.
func (s *Store) Keys() []string {
	out := make([]string, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.data {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Len returns the number of keys. O(1): the counter is maintained at
// every install site, so stats RPCs and anti-entropy ticks never walk the
// shards.
func (s *Store) Len() int {
	return int(s.keyCount.Load())
}

// MetadataBytes returns the encoded causal metadata size for key (0 if
// missing).
func (s *Store) MetadataBytes(key string) int {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.data[key]
	if !ok {
		return 0
	}
	return s.mech.MetadataBytes(st)
}

// TotalMetadataBytes sums encoded causal-metadata size across all keys.
// O(1): install sites apply MetadataBytes deltas to a counter (arithmetic
// since PR 2), replacing the O(shards·keys) walk every stats RPC paid.
func (s *Store) TotalMetadataBytes() int {
	return int(s.metaBytes.Load())
}

// Siblings returns the sibling count for key (0 if missing).
func (s *Store) Siblings(key string) int {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.data[key]
	if !ok {
		return 0
	}
	return s.mech.Siblings(st)
}

// HashEncoded returns the FNV-1a hash of an encoded state — the one
// divergence-detection hash used across the store and the node's read and
// anti-entropy paths.
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

// KeyHash returns a stable hash of key's encoded state, used by
// anti-entropy to detect replica divergence cheaply. Missing keys hash to
// 0. O(1): the hash is cached at install time, not recomputed per call.
func (s *Store) KeyHash(key string) uint64 {
	sh := s.shardFor(key)
	sh.mu.RLock()
	h := sh.hashes[key]
	sh.mu.RUnlock()
	return h
}

// TreeDigest returns the Merkle tree hash at (level, index) — level 0 is
// the leaf layer, antientropy.TreeRootLevel() the root. A converged
// anti-entropy tick is one root compare instead of a keyspace walk.
func (s *Store) TreeDigest(level, index int) uint64 {
	return s.tree.Digest(level, index)
}

// TreeBucketKeys returns the keys in one Merkle leaf bucket, sorted —
// O(bucket members + shards), via the per-shard bucket index.
func (s *Store) TreeBucketKeys(bucket int) []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		out = append(out, sh.buckets[bucket]...)
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// EncodeKey appends key's state to w; reports whether the key existed.
func (s *Store) EncodeKey(key string, w *codec.Writer) bool {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.data[key]
	if !ok {
		return false
	}
	s.mech.EncodeState(w, st)
	return true
}

// Stats reports operation counters. The WAL fields are zero for the
// in-memory Store; the cache/segment fields are the tiered engine's.
type Stats struct {
	Engine            string
	Puts, Gets, Syncs uint64
	Keys              int

	// WALAppends counts records written ahead of installs; WALSyncs counts
	// fsync calls (group commit makes WALSyncs ≤ WALAppends under
	// concurrency); Checkpoints counts completed checkpoints.
	WALAppends, WALSyncs uint64
	Checkpoints          uint64

	// Tiered-engine counters. CacheBytes is the resident hot-set size
	// (bounded by the memory budget); CacheHits/CacheMisses classify reads
	// by whether the state was hot; Spills counts dirty states written to
	// segments, by eviction or checkpoint; Faults counts cold states read
	// back from segments; Segments is the number of on-disk segment files.
	CacheBytes             int64
	CacheHits, CacheMisses uint64
	Spills, Faults         uint64
	Segments               int
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Engine: EngineMemory,
		Puts:   s.puts.Load(),
		Gets:   s.gets.Load(),
		Syncs:  s.syncs.Load(),
		Keys:   s.Len(),
	}
}

// Recovery, WALSize, FailWALAt, InjectFaults, Checkpoint and Close complete
// the Engine contract for a store with no disk: they do nothing.

func (s *Store) Recovery() RecoveryInfo  { return RecoveryInfo{} }
func (s *Store) WALSize() int64          { return 0 }
func (s *Store) FailWALAt(int64, func()) {}
func (s *Store) InjectFaults(*Faults)    {}
func (s *Store) Checkpoint() error       { return nil }
func (s *Store) Close() error            { return nil }
