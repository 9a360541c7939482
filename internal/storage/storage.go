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
// operations (Keys, TotalMetadataBytes, Save, Load) walk the shards one at
// a time instead of stalling the entire store behind a single lock. The
// price is that whole-store reads are per-shard-consistent rather than a
// point-in-time snapshot of the full map — acceptable for the anti-entropy
// and accounting paths that use them, since every key's state is itself
// read under its shard lock and anti-entropy reconverges on the next
// round.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
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

// Store is a replica's local key-value state under one mechanism. Stores
// built by New/NewSharded are purely in-memory; Open builds a durable one
// whose mutations are written ahead to a per-store WAL (see durable.go).
type Store struct {
	mech core.Mechanism

	shards []shard
	mask   uint64

	// operation counters; atomics so reads never touch the shard locks.
	puts, gets, syncs atomic.Uint64

	// keyCount and metaBytes are maintained at every install site (Put,
	// SyncKey, applyReplay, Load), so Len and TotalMetadataBytes are O(1)
	// reads instead of all-shard walks — every stats RPC and anti-entropy
	// tick used to pay an O(shards·keys) scan for them.
	keyCount  atomic.Int64
	metaBytes atomic.Int64

	// tree is the incrementally-maintained Merkle tree over key-state
	// hashes, updated at the same install sites (leaf XOR deltas are
	// lock-free, applied from inside the shard critical section), so
	// anti-entropy reads TreeDigest instead of rebuilding a digest from
	// every key.
	tree *antientropy.Tree

	// durability (nil wal = in-memory store); see durable.go.
	wal         *WAL
	dir         string
	lock        *os.File // flock'd LOCK file guarding dir against double-open
	recovery    RecoveryInfo
	ckptMu      sync.Mutex
	walAppends  atomic.Uint64
	checkpoints atomic.Uint64
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

// ShardCount returns the number of lock domains.
func (s *Store) ShardCount() int { return len(s.shards) }

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
// the client, Riak's return_body). On a durable store the post-state is
// committed to the WAL *before* it is installed, still under the shard
// lock: Put returning nil means the write is durable, and a failed append
// leaves memory untouched, so the in-memory state never runs ahead of the
// log (a crashed-then-recovered replica cannot re-mint a dot it already
// issued but failed to persist).
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
	var hash uint64
	if s.wal != nil {
		if hash, err = s.appendWAL(key, ns); err != nil {
			return core.ReadResult{}, fmt.Errorf("storage: put %q: %w", key, err)
		}
	} else {
		hash = HashState(s.mech, ns)
	}
	s.install(sh, key, ns, ok, oldMeta, hash)
	s.puts.Add(1)
	return s.mech.Read(ns), nil
}

// install writes st into the shard map and keeps the O(1) key and
// metadata counters, the per-key hash cache and the Merkle tree in step.
// Called with the shard lock held; existed and oldMeta describe the entry
// being replaced; hash is st's KeyHash (callers compute it from bytes
// they already encoded where possible).
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
// and anti-entropy ingest path). Durable stores follow the same
// WAL-before-install discipline as Put; merges that change nothing (the
// common case on read-path folds and repeated anti-entropy) are detected
// by comparing canonical encodings and skip both the log append and the
// install, so reads and converged AE rounds do not grow the WAL.
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
	// Merging emptiness into an absent key must stay a no-op in every
	// mode: installing it would grow Len() and the key listing for a key
	// that holds nothing. Siblings and MetadataBytes are arithmetic (no
	// encode), so this costs the in-memory hot path nothing.
	if !ok && s.mech.Siblings(merged) == 0 && s.mech.MetadataBytes(merged) == 0 {
		return nil
	}
	var hash uint64
	if s.wal != nil {
		// Frame the WAL record (the canonical key+state payload of
		// record.go, laid out inline so the state's start is known); the
		// merged state's encoding within it doubles as the no-op check
		// against the old state's encoding — an exact compare, not a
		// hash: a collision here would silently drop a durable write.
		w := codec.GetPooledWriter()
		w.String(key)
		mark := w.Len()
		s.mech.EncodeState(w, merged)
		// st is the empty state when the key is missing, so this also
		// catches an empty remote merged into an absent key — which must
		// not install the key or grow the log.
		old := codec.GetPooledWriter()
		s.mech.EncodeState(old, st)
		same := bytes.Equal(old.Bytes(), w.Bytes()[mark:])
		codec.PutPooledWriter(old)
		if same {
			codec.PutPooledWriter(w)
			return nil // no-op merge: nothing new to persist or install
		}
		hash = HashEncoded(w.Bytes()[mark:]) // reuse the WAL record's state bytes
		err := s.wal.Append(w.Bytes())
		codec.PutPooledWriter(w)
		if err != nil {
			return fmt.Errorf("storage: sync %q: %w", key, err)
		}
		s.walAppends.Add(1)
	} else {
		hash = HashState(s.mech, merged)
	}
	s.install(sh, key, merged, ok, oldMeta, hash)
	s.syncs.Add(1)
	return nil
}

// EncodeStateEqual reports whether two states have identical canonical
// encodings, using pooled scratch writers — the one exact state-equality
// helper shared by the WAL no-op-merge check above and the node's
// hint-retirement compare.
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

// Stats reports operation counters. The WAL fields are zero for in-memory
// stores; the cache/segment fields are zero for the memory engine.
type Stats struct {
	Engine            string
	Puts, Gets, Syncs uint64
	Keys              int

	// WALAppends counts records written ahead of installs; WALSyncs counts
	// fsync calls (group commit makes WALSyncs ≤ WALAppends under
	// concurrency); Checkpoints counts completed snapshot+truncate cycles.
	WALAppends, WALSyncs uint64
	Checkpoints          uint64

	// Tiered-engine counters. CacheBytes is the resident hot-set size
	// (bounded by the memory budget); CacheHits/CacheMisses classify reads
	// by whether the state was hot; Spills counts dirty evictions written
	// to segments; Faults counts cold states read back from segments;
	// Segments is the number of on-disk segment files.
	CacheBytes             int64
	CacheHits, CacheMisses uint64
	Spills, Faults         uint64
	Segments               int
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Engine:      EngineMemory,
		Puts:        s.puts.Load(),
		Gets:        s.gets.Load(),
		Syncs:       s.syncs.Load(),
		Keys:        s.Len(),
		WALAppends:  s.walAppends.Load(),
		Checkpoints: s.checkpoints.Load(),
	}
	if s.wal != nil {
		_, _, st.WALSyncs = s.wal.Stats()
	}
	return st
}

// ---------------------------------------------------------------------------
// Persistence: length-framed (key, state) records.
// ---------------------------------------------------------------------------

// Save writes the whole store to w as framed records in sorted key order.
// Shards are locked one key at a time, so a concurrent writer is never
// stalled for the whole dump; keys written mid-save may or may not be
// included.
func (s *Store) Save(w io.Writer) error {
	for _, k := range s.Keys() {
		cw := codec.NewWriter(256)
		cw.String(k)
		if !s.EncodeKey(k, cw) {
			continue // deleted since listing; nothing to persist
		}
		if err := codec.WriteFrame(w, cw.Bytes()); err != nil {
			return fmt.Errorf("storage: save %q: %w", k, err)
		}
	}
	return nil
}

// Load replaces the store's content with records read from r until EOF.
// Decoding happens outside any lock; the swap then proceeds shard by
// shard.
//
// A torn tail — the stream ending mid-frame, as a crash mid-write leaves
// it — is tolerated, mirroring WAL replay: the intact record prefix is
// kept and the number of discarded tail bytes is returned, so callers can
// surface the damage (Open counts it in RecoveryInfo and rewrites a clean
// snapshot) instead of losing keys silently. A record that is fully
// present but does not decode is mid-file damage and fails with
// ErrCorruptRecord: recovery must not silently skip over rot in the
// middle of the image.
func (s *Store) Load(r io.Reader) (torn int64, err error) {
	fresh := make([]map[string]core.State, len(s.shards))
	freshHash := make([]map[string]uint64, len(s.shards))
	for i := range fresh {
		fresh[i] = make(map[string]core.State)
		freshHash[i] = make(map[string]uint64)
	}
	br := newByteReader(r)
	var good int64 // offset just past the last intact record
	for {
		frame, err := codec.ReadFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				break // clean end at a frame boundary
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				torn = br.offset - good // torn tail: keep the intact prefix
				break
			}
			return 0, fmt.Errorf("storage: load: %w", err)
		}
		key, st, derr := decodeRecord(s.mech, frame)
		if derr != nil {
			return 0, fmt.Errorf("storage: load key %q: %w (%w)", key, derr, ErrCorruptRecord)
		}
		idx := fnv64a(key) & s.mask
		fresh[idx][key] = st
		// The record's state bytes are already canonical — hash them
		// directly instead of re-encoding the decoded state.
		fr := codec.NewReader(frame)
		_ = fr.String() // skip the key field
		freshHash[idx][key] = HashEncoded(frame[len(frame)-fr.Remaining():])
		good += 4 + int64(len(frame))
	}
	var keys, meta int64
	for _, m := range fresh {
		keys += int64(len(m))
		for _, st := range m {
			meta += int64(s.mech.MetadataBytes(st))
		}
	}
	// Load replaces the whole content, so the tree and bucket index are
	// rebuilt from scratch (Load runs at recovery time, before concurrent
	// use — openStore replays the WAL over it afterwards through install).
	s.tree.Reset()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.data = fresh[i]
		sh.hashes = freshHash[i]
		sh.buckets = make(map[int][]string)
		for k, h := range freshHash[i] {
			b := antientropy.TreeBucketOf(k)
			sh.buckets[b] = append(sh.buckets[b], k)
			s.tree.Update(k, 0, false, h)
		}
		sh.mu.Unlock()
	}
	s.keyCount.Store(keys)
	s.metaBytes.Store(meta)
	return torn, nil
}
