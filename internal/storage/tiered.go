// The tiered engine: a byte-budgeted hot cache over immutable spill
// segments. Every key's *index entry* (its name, sizes and segment
// coordinates) stays in memory, but only the hottest sibling states do —
// an LRU per shard, bounded so the whole engine holds MemBudget bytes of
// state while the keyspace on disk is 10-100x larger. Cold reads fault the
// state back in from its segment; evictions spill dirty states out.
//
// Durability keeps PR 4's WAL discipline intact: every mutation appends to
// the WAL before installing, under the shard lock. Spills deliberately do
// NOT fsync — a spilled record's durable copy is still its WAL record —
// and the incremental checkpoint is what retires the log: rotate the WAL,
// walk the shards spilling dirty entries (each shard locked only for its
// own walk — no stop-the-world snapshot), fsync the active segment, then
// drop the retired log. Recovery scans segments oldest→newest (the newest
// record for a key wins, valid because installs are monotone:
// Sync(old, new) == new), replays the WAL over that index with fault-in
// merges, and compacts.
//
// Lock order is shard.mu → segments.mu; nothing ever takes them the other
// way, and no two shard locks are ever held together.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/antientropy"
	"repro/internal/codec"
	"repro/internal/core"
)

// tentry is one key's index entry. The key and accounting fields are
// always resident; st is nil while the state lives only in a segment.
// Invariants (under the shard lock): dirty implies st != nil (a state
// newer than any segment copy is never dropped without a spill), and
// !dirty implies ref is valid; prev/next link the entry into the shard's
// LRU exactly when st != nil.
type tentry struct {
	key   string
	st    core.State // nil = cold
	size  int        // encoded record payload bytes (key + state)
	meta  int        // mechanism MetadataBytes of the current state
	hash  uint64     // KeyHash of the current state — resident, so AE never faults
	dirty bool       // in-memory state newer than ref's segment copy
	ref   segRef
	prev  *tentry
	next  *tentry
}

// tshard is one lock domain of the tiered engine: the key index plus the
// LRU of hot entries (head = most recent) and their byte total. buckets
// indexes the shard's keys by Merkle leaf (append-only; keys are never
// deleted) for O(members) divergent-bucket listing.
type tshard struct {
	mu       sync.Mutex
	entries  map[string]*tentry
	buckets  map[int][]string
	head     *tentry
	tail     *tentry
	hotBytes int64
}

func (sh *tshard) pushFront(e *tentry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *tshard) unlink(e *tentry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *tshard) touch(e *tentry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// Tiered is the memory-bounded durable engine. It is always durable: a
// data directory is required, and the same WAL-before-install contract as
// the memory engine holds (a nil error from Put/SyncKey means durable).
//
// Read-path methods (Get, Snapshot, Siblings, KeyHash, EncodeKey) panic if
// a cold state's segment read fails: the key verifiably exists but its
// only local copy cannot be served, and those signatures have no error
// channel — serving a wrong not-found would corrupt causality, so the
// engine refuses to continue instead.
type Tiered struct {
	mech   core.Mechanism
	dir    string
	lock   *os.File
	wal    *WAL
	segs   *segments
	shards []tshard
	mask   uint64
	budget int64 // per-shard hot-byte budget

	recovery RecoveryInfo
	ckptMu   sync.Mutex

	// tree is the incremental Merkle tree over key-state hashes; with
	// every entry's hash resident in the index, a diff-free anti-entropy
	// tick reads the root and touches no segment.
	tree *antientropy.Tree

	puts, gets, syncs atomic.Uint64
	hits, misses      atomic.Uint64
	spills, faults    atomic.Uint64
	walAppends        atomic.Uint64
	checkpoints       atomic.Uint64
	keyCount          atomic.Int64
	metaBytes         atomic.Int64
	cacheBytes        atomic.Int64
}

// openTiered creates (or recovers) a tiered engine in o.Dir: segments are
// scanned oldest→newest to rebuild the cold index, the WAL is replayed
// over it with fault-in merges, and a compaction flushes whatever the
// replay dirtied so the engine starts with an empty log. The engine comes
// up entirely cold — the cache warms from the workload, not recovery.
func openTiered(mech core.Mechanism, o Options) (*Tiered, error) {
	if o.Dir == "" {
		return nil, errors.New("storage: tiered engine requires a data dir")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", o.Dir, err)
	}
	shards := o.Shards
	if shards < 1 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	budget := o.MemBudget
	if budget <= 0 {
		budget = DefaultMemBudget
	}
	t := &Tiered{
		mech:   mech,
		dir:    o.Dir,
		shards: make([]tshard, n),
		mask:   uint64(n - 1),
		budget: budget / int64(n),
		tree:   antientropy.NewTree(),
	}
	for i := range t.shards {
		t.shards[i].entries = make(map[string]*tentry)
		t.shards[i].buckets = make(map[int][]string)
	}

	lf, err := lockDir(o.Dir)
	if err != nil {
		return nil, err
	}
	t.lock = lf
	ok := false
	defer func() {
		if !ok {
			if t.segs != nil {
				t.segs.close()
			}
			unlockDir(lf)
		}
	}()

	// Rebuild the index from the segments. Each file is scanned with the
	// WAL's frame reader (same format), so a torn tail on the
	// crashed-while-active segment is truncated, not fatal, while mid-file
	// damage anywhere still refuses to open. Later records overwrite
	// earlier index entries — newest wins.
	ids, err := listSegments(o.Dir)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		var off int64
		segID := id
		_, torn, err := ReplayWAL(filepath.Join(o.Dir, segName(id)), func(payload []byte) error {
			key, st, derr := decodeRecord(mech, payload)
			if derr != nil {
				return derr
			}
			sh := t.shardFor(key)
			e := sh.entries[key]
			existed := e != nil
			if !existed {
				e = &tentry{key: key}
				sh.entries[key] = e
				t.keyCount.Add(1)
				b := antientropy.TreeBucketOf(key)
				sh.buckets[b] = append(sh.buckets[b], key)
			}
			// Hash the record's state bytes (already canonical) so the
			// index — and through it the Merkle tree — carries every key's
			// KeyHash without a decode or a later segment read.
			pr := codec.NewReader(payload)
			_ = pr.String() // skip the key field
			h := HashEncoded(payload[len(payload)-pr.Remaining():])
			t.tree.Update(key, e.hash, existed, h)
			e.hash = h
			t.metaBytes.Add(int64(mech.MetadataBytes(st) - e.meta))
			e.meta = mech.MetadataBytes(st)
			e.size = len(payload)
			e.ref = segRef{seg: segID, off: off + walHeaderSize, n: int32(len(payload))}
			e.st, e.dirty = nil, false // index only; states stay cold
			off += walHeaderSize + int64(len(payload))
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("storage: open %s: %s: %w", o.Dir, segName(id), err)
		}
		t.recovery.TornBytes += torn
	}
	// SnapshotKeys plays the same role as the memory engine's snapshot
	// count: keys recovered from the compacted base (here, the segments).
	t.recovery.SnapshotKeys = int(t.keyCount.Load())

	if t.segs, err = openSegments(o.Dir, ids); err != nil {
		return nil, err
	}

	// Replay the WAL over the index, oldest segment first (see openStore
	// for why wal.prev may exist and why Sync makes double-replay safe).
	prevPath := filepath.Join(o.Dir, walPrevName)
	_, serr := os.Stat(prevPath)
	hadPrev := serr == nil
	for _, name := range []string{walPrevName, walName} {
		records, torn, err := ReplayWAL(filepath.Join(o.Dir, name), func(payload []byte) error {
			return t.applyReplay(payload)
		})
		if err != nil {
			return nil, fmt.Errorf("storage: open %s: %s: %w", o.Dir, name, err)
		}
		t.recovery.WALRecords += records
		t.recovery.TornBytes += torn
	}

	// Compact: spill what the replay dirtied, make it durable, drop the
	// logs — snapshot-first ordering, exactly like openStore.
	if t.recovery.WALRecords > 0 || t.recovery.TornBytes > 0 || hadPrev {
		if err := t.flushDirty(); err != nil {
			return nil, fmt.Errorf("storage: open %s: compact: %w", o.Dir, err)
		}
		if err := t.segs.syncActive(); err != nil {
			return nil, err
		}
		if err := os.Remove(prevPath); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("storage: open %s: drop retired wal: %w", o.Dir, err)
		}
		if err := os.Truncate(filepath.Join(o.Dir, walName), 0); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("storage: open %s: truncate wal: %w", o.Dir, err)
		}
		if err := syncDir(o.Dir); err != nil {
			return nil, err
		}
		t.checkpoints.Add(1)
	}

	w, err := OpenWAL(filepath.Join(o.Dir, walName), o.Fsync)
	if err != nil {
		return nil, err
	}
	if err := syncDir(o.Dir); err != nil {
		w.Close()
		return nil, err
	}
	if parent := filepath.Dir(o.Dir); parent != o.Dir {
		if err := syncDir(parent); err != nil {
			w.Close()
			return nil, err
		}
	}
	t.wal = w
	ok = true
	return t, nil
}

// Name identifies the engine kind.
func (t *Tiered) Name() string { return EngineTiered }

// Mechanism returns the engine's causality mechanism.
func (t *Tiered) Mechanism() core.Mechanism { return t.mech }

func (t *Tiered) shardFor(key string) *tshard {
	return &t.shards[fnv64a(key)&t.mask]
}

// faultIn loads e's state from its segment and links it into the LRU.
// Called with the shard lock held, e cold.
func (t *Tiered) faultIn(sh *tshard, e *tentry) error {
	payload, err := t.segs.readAt(e.ref)
	if err != nil {
		return err
	}
	key, st, err := decodeRecord(t.mech, payload)
	if err != nil {
		return fmt.Errorf("storage: fault %q: %w", e.key, err)
	}
	if key != e.key {
		return fmt.Errorf("storage: fault %q: segment record holds %q (%w)", e.key, key, ErrCorruptRecord)
	}
	e.st = st
	sh.pushFront(e)
	sh.hotBytes += int64(e.size)
	t.cacheBytes.Add(int64(e.size))
	t.faults.Add(1)
	return nil
}

func (t *Tiered) mustFault(sh *tshard, e *tentry) {
	if err := t.faultIn(sh, e); err != nil {
		panic(fmt.Sprintf("storage: tiered %s: unrecoverable cold read: %v", t.dir, err))
	}
}

// coldState decodes e's segment copy WITHOUT installing it — used by
// whole-store walks (Snapshot for anti-entropy, Siblings) so scans do not
// thrash the hot set. The returned state is freshly decoded and owned by
// the caller.
func (t *Tiered) coldState(e *tentry) core.State {
	payload, err := t.segs.readAt(e.ref)
	if err == nil {
		var st core.State
		var key string
		if key, st, err = decodeRecord(t.mech, payload); err == nil && key == e.key {
			t.faults.Add(1)
			return st
		}
	}
	panic(fmt.Sprintf("storage: tiered %s: unrecoverable cold read %q: %v", t.dir, e.key, err))
}

// coldStateBytes returns the canonical state encoding inside e's segment
// record — the bytes after the key field — without decoding the state.
func (t *Tiered) coldStateBytes(e *tentry) []byte {
	payload, err := t.segs.readAt(e.ref)
	if err != nil {
		panic(fmt.Sprintf("storage: tiered %s: unrecoverable cold read %q: %v", t.dir, e.key, err))
	}
	r := codec.NewReader(payload)
	_ = r.String() // skip the key field
	if r.Err() != nil {
		panic(fmt.Sprintf("storage: tiered %s: corrupt segment record %q: %v", t.dir, e.key, r.Err()))
	}
	t.faults.Add(1)
	return payload[len(payload)-r.Remaining():]
}

// spill writes e's state to the active segment and marks it clean. Called
// with the shard lock held, e hot and dirty. No fsync — see segments.write.
func (t *Tiered) spill(e *tentry) error {
	w := recordPayload(t.mech, e.key, e.st)
	ref, err := t.segs.write(w.Bytes())
	codec.PutPooledWriter(w)
	if err != nil {
		return err
	}
	e.ref = ref
	e.dirty = false
	t.spills.Add(1)
	return nil
}

// evict drops cold-eligible LRU tails until the shard is back under its
// byte budget, spilling dirty states first. keep (the entry just touched)
// is never evicted, so a single state larger than the whole budget still
// works. A spill failure is unrecoverable I/O on the data directory
// (the WAL on the same disk would fail next): panic rather than let the
// hot set silently grow past its budget.
func (t *Tiered) evict(sh *tshard, keep *tentry) {
	for sh.hotBytes > t.budget {
		e := sh.tail
		if e == nil || e == keep {
			return
		}
		if e.dirty {
			if err := t.spill(e); err != nil {
				panic(fmt.Sprintf("storage: tiered %s: spill %q: %v", t.dir, e.key, err))
			}
		}
		e.st = nil
		sh.unlink(e)
		sh.hotBytes -= int64(e.size)
		t.cacheBytes.Add(-int64(e.size))
	}
}

// installHot makes st the key's current state: hot, dirty, front of the
// LRU, all counters plus the Merkle tree in step. Called with the shard
// lock held; size is the encoded record payload length and hash the
// state's KeyHash (both already computed by every caller for the WAL
// append). Returns the entry for the evict(keep) call.
func (t *Tiered) installHot(sh *tshard, key string, st core.State, size, meta int, hash uint64) *tentry {
	e := sh.entries[key]
	if e == nil {
		e = &tentry{key: key}
		sh.entries[key] = e
		t.keyCount.Add(1)
		b := antientropy.TreeBucketOf(key)
		sh.buckets[b] = append(sh.buckets[b], key)
		t.tree.Update(key, 0, false, hash)
	} else {
		t.tree.Update(key, e.hash, true, hash)
		if e.st != nil {
			sh.unlink(e)
			sh.hotBytes -= int64(e.size)
			t.cacheBytes.Add(-int64(e.size))
		}
	}
	t.metaBytes.Add(int64(meta - e.meta))
	e.st, e.size, e.meta, e.hash, e.dirty = st, size, meta, hash, true
	sh.pushFront(e)
	sh.hotBytes += int64(size)
	t.cacheBytes.Add(int64(size))
	return e
}

// Get returns the sibling values and causal context for key, faulting the
// state in from its segment if cold.
func (t *Tiered) Get(key string) (core.ReadResult, bool) {
	t.gets.Add(1)
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	if e == nil {
		return core.ReadResult{Ctx: t.mech.EmptyContext()}, false
	}
	if e.st != nil {
		t.hits.Add(1)
		sh.touch(e)
	} else {
		t.misses.Add(1)
		t.mustFault(sh, e)
		t.evict(sh, e)
	}
	return t.mech.Read(e.st), true
}

// Put applies a client write to key. Same contract as the memory engine:
// the post-state is WAL-committed before it is installed, under the shard
// lock, so a nil return means durable and an error leaves memory (and the
// dot counters a recovered replica re-mints from) untouched.
func (t *Tiered) Put(key string, ctx core.Context, value []byte, w core.WriteInfo) (core.ReadResult, error) {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	var st core.State
	if e == nil {
		st = t.mech.NewState()
	} else {
		if e.st == nil {
			if err := t.faultIn(sh, e); err != nil {
				return core.ReadResult{}, fmt.Errorf("storage: put %q: %w", key, err)
			}
		}
		st = e.st
	}
	ns, err := t.mech.Put(st, ctx, value, w)
	if err != nil {
		return core.ReadResult{}, fmt.Errorf("storage: put %q: %w", key, err)
	}
	pw := codec.GetPooledWriter()
	pw.String(key)
	mark := pw.Len()
	t.mech.EncodeState(pw, ns)
	hash := HashEncoded(pw.Bytes()[mark:])
	if err := t.wal.Append(pw.Bytes()); err != nil {
		codec.PutPooledWriter(pw)
		return core.ReadResult{}, fmt.Errorf("storage: put %q: %w", key, err)
	}
	t.walAppends.Add(1)
	size := pw.Len()
	codec.PutPooledWriter(pw)
	kept := t.installHot(sh, key, ns, size, t.mech.MetadataBytes(ns), hash)
	t.evict(sh, kept)
	t.puts.Add(1)
	return t.mech.Read(ns), nil
}

// SyncKey merges a remote state for key into the local one, with the same
// no-op-merge detection as the memory engine: a merge that changes nothing
// skips the WAL append, the install and the dirty bit, so converged
// anti-entropy rounds do not grow the log or re-spill.
func (t *Tiered) SyncKey(key string, remote core.State) error {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	var st core.State
	if e == nil {
		st = t.mech.NewState()
	} else {
		if e.st == nil {
			if err := t.faultIn(sh, e); err != nil {
				return fmt.Errorf("storage: sync %q: %w", key, err)
			}
			t.evict(sh, e)
		}
		st = e.st
	}
	merged := t.mech.Sync(st, remote)
	if e == nil && t.mech.Siblings(merged) == 0 && t.mech.MetadataBytes(merged) == 0 {
		return nil // empty merged into absent: must not create the key
	}
	w := codec.GetPooledWriter()
	w.String(key)
	mark := w.Len()
	t.mech.EncodeState(w, merged)
	old := codec.GetPooledWriter()
	t.mech.EncodeState(old, st)
	same := bytes.Equal(old.Bytes(), w.Bytes()[mark:])
	codec.PutPooledWriter(old)
	if same {
		codec.PutPooledWriter(w)
		return nil
	}
	hash := HashEncoded(w.Bytes()[mark:])
	if err := t.wal.Append(w.Bytes()); err != nil {
		codec.PutPooledWriter(w)
		return fmt.Errorf("storage: sync %q: %w", key, err)
	}
	t.walAppends.Add(1)
	size := w.Len()
	codec.PutPooledWriter(w)
	kept := t.installHot(sh, key, merged, size, t.mech.MetadataBytes(merged), hash)
	t.evict(sh, kept)
	t.syncs.Add(1)
	return nil
}

// applyReplay merges one WAL record into the engine during recovery,
// faulting the segment copy in first when the key is cold. Evictions along
// the way keep replay itself within the memory budget.
func (t *Tiered) applyReplay(payload []byte) error {
	key, st, err := decodeRecord(t.mech, payload)
	if err != nil {
		return err
	}
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	size := len(payload)
	var hash uint64
	if e != nil {
		if e.st == nil {
			if err := t.faultIn(sh, e); err != nil {
				return err
			}
		}
		st = t.mech.Sync(e.st, st)
		w := codec.GetPooledWriter()
		w.String(key)
		mark := w.Len()
		t.mech.EncodeState(w, st)
		size = w.Len()
		hash = HashEncoded(w.Bytes()[mark:])
		codec.PutPooledWriter(w)
	} else {
		pr := codec.NewReader(payload)
		_ = pr.String()
		hash = HashEncoded(payload[len(payload)-pr.Remaining():])
	}
	kept := t.installHot(sh, key, st, size, t.mech.MetadataBytes(st), hash)
	t.evict(sh, kept)
	return nil
}

// Snapshot returns key's state: the installed state itself when hot (states
// are immutable, see core.Mechanism), a fresh decode of the segment copy
// when cold — deliberately not installed, so anti-entropy walks do not
// thrash the hot set.
func (t *Tiered) Snapshot(key string) (core.State, bool) {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	if e == nil {
		return nil, false
	}
	if e.st != nil {
		return e.st, true
	}
	return t.coldState(e), true
}

// Keys returns all keys, sorted. The index is fully resident, so this
// never touches a segment.
func (t *Tiered) Keys() []string {
	out := make([]string, 0, t.Len())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k := range sh.entries {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Len returns the number of keys (hot + cold), O(1).
func (t *Tiered) Len() int { return int(t.keyCount.Load()) }

// MetadataBytes returns the cached causal-metadata size for key — resident
// in the index, so no segment read even when cold.
func (t *Tiered) MetadataBytes(key string) int {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[key]; e != nil {
		return e.meta
	}
	return 0
}

// TotalMetadataBytes sums metadata across all keys, O(1).
func (t *Tiered) TotalMetadataBytes() int { return int(t.metaBytes.Load()) }

// Siblings returns the sibling count for key (0 if missing), decoding the
// segment copy without installing it when cold.
func (t *Tiered) Siblings(key string) int {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	if e == nil {
		return 0
	}
	if e.st != nil {
		return t.mech.Siblings(e.st)
	}
	return t.mech.Siblings(t.coldState(e))
}

// KeyHash returns the divergence-detection hash of key's canonical state
// encoding. The hash is resident in the index entry (maintained at every
// install and recovery-scan site), so this is O(1) and — critically for
// anti-entropy over a mostly-cold keyspace — never reads a segment: a
// diff-free AE tick does zero segment I/O. (It used to pay one segment
// read per cold key per tick.)
func (t *Tiered) KeyHash(key string) uint64 {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[key]; e != nil {
		return e.hash
	}
	return 0
}

// TreeDigest returns the Merkle tree hash at (level, index); see
// Store.TreeDigest.
func (t *Tiered) TreeDigest(level, index int) uint64 {
	return t.tree.Digest(level, index)
}

// TreeBucketKeys returns the keys in one Merkle leaf bucket, sorted. The
// bucket index is resident, so no segment I/O.
func (t *Tiered) TreeBucketKeys(bucket int) []string {
	var out []string
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.buckets[bucket]...)
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// EncodeKey appends key's canonical state encoding to w; cold keys copy
// the segment bytes straight through.
func (t *Tiered) EncodeKey(key string, w *codec.Writer) bool {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	if e == nil {
		return false
	}
	if e.st != nil {
		t.mech.EncodeState(w, e.st)
		return true
	}
	w.Append(t.coldStateBytes(e))
	return true
}

// Stats returns a snapshot of the engine's counters.
func (t *Tiered) Stats() Stats {
	st := Stats{
		Engine:      EngineTiered,
		Puts:        t.puts.Load(),
		Gets:        t.gets.Load(),
		Syncs:       t.syncs.Load(),
		Keys:        t.Len(),
		WALAppends:  t.walAppends.Load(),
		Checkpoints: t.checkpoints.Load(),
		CacheBytes:  t.cacheBytes.Load(),
		CacheHits:   t.hits.Load(),
		CacheMisses: t.misses.Load(),
		Spills:      t.spills.Load(),
		Faults:      t.faults.Load(),
		Segments:    t.segs.count(),
	}
	_, _, st.WALSyncs = t.wal.Stats()
	return st
}

// Durable reports whether mutations persist — always true: the tiered
// engine has no in-memory-only mode.
func (t *Tiered) Durable() bool { return true }

// Dir returns the data directory.
func (t *Tiered) Dir() string { return t.dir }

// Recovery returns what openTiered found on disk.
func (t *Tiered) Recovery() RecoveryInfo { return t.recovery }

// WALSize returns the log's logical offset in bytes (monotone across
// checkpoints; the coordinate system FailWALAt offsets live in).
func (t *Tiered) WALSize() int64 { return t.wal.Size() }

// FailWALAt arms the WAL crash failpoint (see WAL.FailAt).
func (t *Tiered) FailWALAt(offset int64, onCrash func()) {
	t.wal.FailAt(offset, onCrash)
}

// InjectFaults attaches a transient disk-fault injector to the WAL (see
// fault.go).
func (t *Tiered) InjectFaults(f *Faults) { t.wal.SetFaults(f) }

// flushDirty spills every dirty entry to the active segment, one shard
// lock at a time — the incremental-checkpoint walk. Spilled entries stay
// hot; only their dirty bit clears.
func (t *Tiered) flushDirty() error {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.dirty {
				if err := t.spill(e); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// Checkpoint incrementally compacts the log: rotate the WAL aside, spill
// the dirty deltas shard by shard (writers only ever wait on their own
// shard lock — no stop-the-world image), fsync the active segment, then
// drop the retired log. The wal.prev-preserving rule is the memory
// engine's: if a previous checkpoint died between rotating and finishing,
// this round skips rotation and just covers the old segment's records.
func (t *Tiered) Checkpoint() error {
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	prevPath := filepath.Join(t.dir, walPrevName)
	if _, err := os.Stat(prevPath); os.IsNotExist(err) {
		if err := t.wal.rotate(prevPath); err != nil {
			return fmt.Errorf("storage: checkpoint rotate: %w", err)
		}
	} else if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := t.flushDirty(); err != nil {
		return fmt.Errorf("storage: checkpoint flush: %w", err)
	}
	if err := t.segs.syncActive(); err != nil {
		return err
	}
	if err := os.Remove(prevPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: checkpoint: drop retired wal: %w", err)
	}
	t.checkpoints.Add(1)
	return nil
}

// Close flushes and closes the WAL, closes the segment handles and
// releases the directory lock. Dirty entries are not spilled: their WAL
// records are durable and recovery replays them.
func (t *Tiered) Close() error {
	err := t.wal.Close()
	if cerr := t.segs.close(); err == nil {
		err = cerr
	}
	unlockDir(t.lock)
	t.lock = nil
	return err
}
