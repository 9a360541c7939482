// The tiered engine, the one storage engine: a byte-budgeted hot cache
// over immutable spill segments. Every key's *index slot* (its name, sizes
// and segment coordinates; pointer-free, see tindex.go) stays in memory,
// but only the hottest sibling states do — an LRU per shard, bounded so
// the whole engine holds MemBudget bytes of state while the keyspace on
// disk is 10-100x larger. Cold reads fault the state back in from its
// segment; evictions spill dirty states out. Under the EngineMemory
// policy the budget is unbounded: nothing is evicted, and only recovery
// leaves states cold. With no data directory the engine has no lock file,
// WAL or segments and an unbounded budget, so every state stays resident
// and the durability surface does nothing.
//
// On-disk layout inside the data directory:
//
//	LOCK          — flock'd against a second owner (see lockDir)
//	wal.log       — the active write-ahead log (see wal.go)
//	wal.prev      — the retired log, present only between a checkpoint's
//	                rotation and its completion
//	seg-*.dat     — immutable spill segments (see segment.go)
//
// Every mutation appends its post-state to the WAL *before* installing it
// in memory, both steps under the key's shard lock. That single critical
// section is what makes checkpoints race-free without quiescing writers:
// when Checkpoint rotates the WAL and then walks the shards, any record
// that went to the retired log was installed by a writer still holding
// (or having released) its shard lock, so the walk — which takes each
// shard lock — necessarily observes it and spills it. A record can only
// miss the walk if it landed in the *new* log, which the checkpoint keeps.
// Spills deliberately do NOT fsync — a spilled record's durable copy is
// still its WAL record — so the checkpoint fsyncs the active segment
// before it drops the retired log.
//
// Recovery scans segments oldest→newest (the newest record for a key
// wins, valid because installs are monotone: Sync(old, new) == new), then
// replays wal.prev and wal.log over that index, merging every record
// through the mechanism's Sync — a join, so replay is idempotent and
// order-insensitive: a record replayed twice, or one that also made it
// into a segment, converges to the same state. A recovering replica
// therefore restarts with every acknowledged write and with per-key dot
// counters at least as high as any it ever issued — it cannot mint a
// duplicate dot (dots are minted from MaxDot over the recovered sibling
// sets).
//
// Lock order is shard.mu → segments.mu and shard.mu → tbuckets.mu;
// nothing ever takes them the other way, and no two shard locks are ever
// held together.
package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/antientropy"
	"repro/internal/codec"
	"repro/internal/core"
)

// Data-directory file names.
const (
	walName     = "wal.log"
	walPrevName = "wal.prev"
	lockName    = "LOCK"
	// legacySnapshotName is the whole-store image an earlier map engine
	// wrote. Open refuses a directory holding one rather than come up
	// without the keys only it holds.
	legacySnapshotName = "snapshot.dat"
)

// Tiered is the storage engine. With a data directory every mutation is
// written ahead: a nil error from Put/SyncKey means durable. Without one
// (wal == nil) it is purely in memory.
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
	// tick reads the root and touches no segment. buckets lists each
	// leaf's keys (see tindex.go).
	tree    *antientropy.Tree
	buckets tbuckets

	puts, gets, syncs atomic.Uint64
	hits, misses      atomic.Uint64
	spills, faults    atomic.Uint64
	walAppends        atomic.Uint64
	checkpoints       atomic.Uint64
	keyCount          atomic.Int64
	metaBytes         atomic.Int64
	cacheBytes        atomic.Int64
}

// newTiered returns an empty engine with no directory: shards rounded up
// to a power of two (minimum 1), the hot cache holding at most budget
// bytes.
func newTiered(mech core.Mechanism, shards int, budget int64) *Tiered {
	n := 1
	for n < shards {
		n <<= 1
	}
	t := &Tiered{
		mech:   mech,
		shards: make([]tshard, n),
		mask:   uint64(n - 1),
		budget: budget / int64(n),
		tree:   antientropy.NewTree(),
	}
	for i := range t.shards {
		t.shards[i] = newTShard(uint32(i))
	}
	return t
}

// open attaches the empty engine t to the data directory o.Dir, creating
// or recovering it: segments are scanned oldest→newest to rebuild the cold
// index, the WAL is replayed over it with fault-in merges, and a
// compaction flushes whatever the replay dirtied so the engine starts with
// an empty log. The engine comes up entirely cold — the cache warms from
// the workload, not recovery.
func (t *Tiered) open(o Options) error {
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return fmt.Errorf("storage: open %s: %w", o.Dir, err)
	}
	if _, err := os.Stat(filepath.Join(o.Dir, legacySnapshotName)); err == nil {
		return fmt.Errorf("storage: open %s: %s is a whole-store snapshot this engine cannot read; its keys would be lost", o.Dir, legacySnapshotName)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("storage: open %s: %w", o.Dir, err)
	}
	t.dir = o.Dir
	lf, err := lockDir(o.Dir)
	if err != nil {
		return err
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
		return err
	}
	for _, id := range ids {
		var off int64
		segID := id
		_, torn, err := ReplayWAL(filepath.Join(o.Dir, segName(id)), func(payload []byte) error {
			key, st, derr := decodeRecord(t.mech, payload)
			if derr != nil {
				return derr
			}
			kh := fnv64a(key)
			sh := t.shard(kh)
			i := sh.find(key, kh)
			existed := i >= 0
			if !existed {
				i = t.newSlot(sh, key, kh)
			}
			e := &sh.slots[i]
			// Hash the record's state bytes (already canonical) so the
			// index — and through it the Merkle tree — carries every key's
			// KeyHash without a decode or a later segment read. (The split
			// cannot fail: decodeRecord just parsed the same payload.)
			_, stateBytes, _ := splitRecord(payload)
			h := HashEncoded(stateBytes)
			t.tree.Update(key, e.hash, existed, h)
			e.hash = h
			meta := int32(t.mech.MetadataBytes(st))
			t.metaBytes.Add(int64(meta - e.meta))
			e.meta = meta
			e.size = int32(len(payload))
			e.ref = segRef{seg: segID, off: off + walHeaderSize, n: int32(len(payload))}
			e.dirty = false // index only; states stay cold
			off += walHeaderSize + int64(len(payload))
			return nil
		})
		if err != nil {
			return fmt.Errorf("storage: open %s: %s: %w", o.Dir, segName(id), err)
		}
		t.recovery.TornBytes += torn
	}
	// SnapshotKeys counts the keys recovered from the compacted base.
	t.recovery.SnapshotKeys = int(t.keyCount.Load())

	if t.segs, err = openSegments(o.Dir, ids); err != nil {
		return err
	}

	// Replay the WAL over the index, oldest log first. wal.prev exists
	// only if a checkpoint crashed (or failed) between rotating and
	// finishing; its records may or may not be in a segment — Sync makes
	// either fine.
	prevPath := filepath.Join(o.Dir, walPrevName)
	_, serr := os.Stat(prevPath)
	hadPrev := serr == nil
	for _, name := range []string{walPrevName, walName} {
		records, torn, err := ReplayWAL(filepath.Join(o.Dir, name), func(payload []byte) error {
			return t.applyReplay(payload)
		})
		if err != nil {
			return fmt.Errorf("storage: open %s: %s: %w", o.Dir, name, err)
		}
		t.recovery.WALRecords += records
		t.recovery.TornBytes += torn
	}

	// Compact before the engine goes live, but only when recovery
	// replayed something: a clean restart must not rewrite anything. The
	// order is segments-first: the logs are dropped only after the spills
	// holding their records are durable, so no crash here ever leaves a
	// record whose only copy was just deleted.
	if t.recovery.WALRecords > 0 || t.recovery.TornBytes > 0 || hadPrev {
		if err := t.flushDirty(); err != nil {
			return fmt.Errorf("storage: open %s: compact: %w", o.Dir, err)
		}
		if err := t.segs.syncActive(); err != nil {
			return err
		}
		if err := os.Remove(prevPath); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("storage: open %s: drop retired wal: %w", o.Dir, err)
		}
		if err := os.Truncate(filepath.Join(o.Dir, walName), 0); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("storage: open %s: truncate wal: %w", o.Dir, err)
		}
		if err := syncDir(o.Dir); err != nil {
			return err
		}
		t.checkpoints.Add(1)
	}

	w, err := OpenWAL(filepath.Join(o.Dir, walName), o.Fsync)
	if err != nil {
		return err
	}
	// Persist the directory entries before the first append is acked: on
	// a fresh directory nothing above has fsynced the dir, and an fsynced
	// wal.log whose *name* a power cut can drop protects nothing. The
	// parent gets the same treatment so a just-created data dir cannot
	// itself vanish.
	if err := syncDir(o.Dir); err != nil {
		w.Close()
		return err
	}
	if parent := filepath.Dir(o.Dir); parent != o.Dir {
		if err := syncDir(parent); err != nil {
			w.Close()
			return err
		}
	}
	t.wal = w
	ok = true
	return nil
}

// Name identifies the engine kind: EngineMemory with no directory,
// EngineTiered with one.
func (t *Tiered) Name() string {
	if t.wal == nil {
		return EngineMemory
	}
	return EngineTiered
}

// Mechanism returns the engine's causality mechanism.
func (t *Tiered) Mechanism() core.Mechanism { return t.mech }

// shard returns the shard owning a key with fnv64a hash kh.
func (t *Tiered) shard(kh uint64) *tshard {
	return &t.shards[kh&t.mask]
}

// lookup hashes key once, locks its shard and returns the shard (the
// caller unlocks it), the hash and the key's slot (-1 if absent).
func (t *Tiered) lookup(key string) (*tshard, uint64, int32) {
	kh := fnv64a(key)
	sh := t.shard(kh)
	sh.mu.Lock()
	return sh, kh, sh.find(key, kh)
}

// readSlot preads and decodes slot i's segment copy, checking that the
// record names the slot's key — compared against the arena, no string
// built. Called with the shard lock held.
func (t *Tiered) readSlot(sh *tshard, i int32) (core.State, error) {
	payload, err := t.segs.readAt(sh.slots[i].ref, &sh.scratch)
	if err != nil {
		return nil, err
	}
	key, state, err := splitRecord(payload)
	if err == nil && !bytes.Equal(key, sh.key(i)) {
		err = fmt.Errorf("segment record holds %q (%w)", key, ErrCorruptRecord)
	}
	var st core.State
	if err == nil {
		st, err = decodeState(t.mech, state)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: fault %q: %w", sh.key(i), err)
	}
	t.faults.Add(1)
	return st, nil
}

// faultIn loads cold slot i's state from its segment and links it into
// the LRU. Called with the shard lock held.
func (t *Tiered) faultIn(sh *tshard, i int32) error {
	st, err := t.readSlot(sh, i)
	if err != nil {
		return err
	}
	t.admit(sh, i, st)
	return nil
}

// coldState decodes cold slot i's segment copy WITHOUT installing it —
// used by whole-store walks (Snapshot for anti-entropy, Siblings) so scans
// do not thrash the hot set. The returned state is freshly decoded and
// owned by the caller.
func (t *Tiered) coldState(sh *tshard, i int32) core.State {
	st, err := t.readSlot(sh, i)
	if err != nil {
		panic(fmt.Sprintf("storage: tiered %s: unrecoverable cold read: %v", t.dir, err))
	}
	return st
}

// coldStateBytes returns the canonical state encoding inside slot i's
// segment record — the bytes after the key field — without decoding the
// state. The bytes alias the shard's read scratch: copy them before the
// shard lock is released.
func (t *Tiered) coldStateBytes(sh *tshard, i int32) []byte {
	payload, err := t.segs.readAt(sh.slots[i].ref, &sh.scratch)
	if err != nil {
		panic(fmt.Sprintf("storage: tiered %s: unrecoverable cold read %q: %v", t.dir, sh.key(i), err))
	}
	_, state, err := splitRecord(payload)
	if err != nil {
		panic(fmt.Sprintf("storage: tiered %s: corrupt segment record %q: %v", t.dir, sh.key(i), err))
	}
	t.faults.Add(1)
	return state
}

// spill writes slot i's state to the active segment and marks it clean.
// Called with the shard lock held, the slot hot and dirty. No fsync — see
// segments.write.
func (t *Tiered) spill(sh *tshard, i int32) error {
	w := codec.GetPooledWriter()
	encodeRecord(t.mech, w, sh.key(i), sh.state(i))
	ref, err := t.segs.write(w.Bytes())
	codec.PutPooledWriter(w)
	if err != nil {
		return err
	}
	e := &sh.slots[i]
	e.ref = ref
	e.dirty = false
	t.spills.Add(1)
	return nil
}

// evict drops cold-eligible LRU tails until the shard is back under its
// byte budget, spilling dirty states first. keep (the slot just touched)
// is never evicted, so a single state larger than the whole budget still
// works. A spill failure is unrecoverable I/O on the data directory
// (the WAL on the same disk would fail next): panic rather than let the
// hot set silently grow past its budget.
func (t *Tiered) evict(sh *tshard, keep int32) {
	for sh.hotBytes > t.budget {
		h := sh.hot[0].prev
		if h == 0 {
			return
		}
		i := sh.hot[h].slot
		if i == keep {
			return
		}
		if sh.slots[i].dirty {
			if err := t.spill(sh, i); err != nil {
				panic(fmt.Sprintf("storage: tiered %s: spill %q: %v", t.dir, sh.key(i), err))
			}
		}
		t.drop(sh, i)
	}
}

// installHot makes st the key's current state: hot, dirty, front of the
// LRU, all counters plus the Merkle tree in step. i is the key's slot, or
// -1 to create one under index hash kh. Called with the shard lock held;
// size is the encoded record payload length and hash the state's KeyHash
// (both already computed by every caller for the WAL append). Returns the
// slot for the evict(keep) call.
func (t *Tiered) installHot(sh *tshard, i int32, key string, kh uint64, st core.State, size, meta int, hash uint64) int32 {
	if i < 0 {
		i = t.newSlot(sh, key, kh)
		t.tree.Update(key, 0, false, hash)
	} else {
		t.tree.Update(key, sh.slots[i].hash, true, hash)
	}
	e := &sh.slots[i]
	if e.hot != 0 {
		t.drop(sh, i)
	}
	t.metaBytes.Add(int64(meta) - int64(e.meta))
	e.size, e.meta, e.hash, e.dirty = int32(size), int32(meta), hash, true
	t.admit(sh, i, st)
	return i
}

// current returns slot i's state for a mutation, faulting it in when cold
// (a fresh state for i < 0). Called with the shard lock held.
func (t *Tiered) current(sh *tshard, i int32) (core.State, error) {
	if i < 0 {
		return t.mech.NewState(), nil
	}
	if sh.slots[i].hot == 0 {
		if err := t.faultIn(sh, i); err != nil {
			return nil, err
		}
	}
	return sh.state(i), nil
}

// Get returns the sibling values and causal context for key, faulting the
// state in from its segment if cold.
func (t *Tiered) Get(key string) (core.ReadResult, bool) {
	t.gets.Add(1)
	sh, _, i := t.lookup(key)
	defer sh.mu.Unlock()
	if i < 0 {
		return core.ReadResult{Ctx: t.mech.EmptyContext()}, false
	}
	if h := sh.slots[i].hot; h != 0 {
		t.hits.Add(1)
		sh.touch(h)
	} else {
		t.misses.Add(1)
		if err := t.faultIn(sh, i); err != nil {
			panic(fmt.Sprintf("storage: tiered %s: unrecoverable cold read: %v", t.dir, err))
		}
		t.evict(sh, i)
	}
	return t.mech.Read(sh.state(i)), true
}

// append writes one record ahead of its install and counts it. With no
// directory there is no log, and every record is accepted.
func (t *Tiered) append(payload []byte) error {
	if t.wal == nil {
		return nil
	}
	if err := t.wal.Append(payload); err != nil {
		return err
	}
	t.walAppends.Add(1)
	return nil
}

// Put applies a client write to key. The post-state is WAL-committed
// before it is installed, under the shard lock, so a nil return means
// durable and an error leaves memory (and the dot counters a recovered
// replica re-mints from) untouched.
func (t *Tiered) Put(key string, ctx core.Context, value []byte, w core.WriteInfo) (core.ReadResult, error) {
	sh, kh, i := t.lookup(key)
	defer sh.mu.Unlock()
	st, err := t.current(sh, i)
	if err != nil {
		return core.ReadResult{}, fmt.Errorf("storage: put %q: %w", key, err)
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
	if err := t.append(pw.Bytes()); err != nil {
		codec.PutPooledWriter(pw)
		return core.ReadResult{}, fmt.Errorf("storage: put %q: %w", key, err)
	}
	size := pw.Len()
	codec.PutPooledWriter(pw)
	kept := t.installHot(sh, i, key, kh, ns, size, t.mech.MetadataBytes(ns), hash)
	t.evict(sh, kept)
	t.puts.Add(1)
	return t.mech.Read(ns), nil
}

// SyncKey merges a remote state for key into the local one. A merge that
// changes nothing — detected by comparing canonical encodings, exactly,
// not by hash: a collision would silently drop a durable write — skips the
// WAL append, the install and the dirty bit, so read-path folds and
// converged anti-entropy rounds do not grow the log or re-spill.
func (t *Tiered) SyncKey(key string, remote core.State) error {
	sh, kh, i := t.lookup(key)
	defer sh.mu.Unlock()
	cold := i >= 0 && sh.slots[i].hot == 0
	st, err := t.current(sh, i)
	if err != nil {
		return fmt.Errorf("storage: sync %q: %w", key, err)
	}
	if cold {
		t.evict(sh, i)
	}
	merged := t.mech.Sync(st, remote)
	if i < 0 && t.mech.Siblings(merged) == 0 && t.mech.MetadataBytes(merged) == 0 {
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
	if err := t.append(w.Bytes()); err != nil {
		codec.PutPooledWriter(w)
		return fmt.Errorf("storage: sync %q: %w", key, err)
	}
	size := w.Len()
	codec.PutPooledWriter(w)
	kept := t.installHot(sh, i, key, kh, merged, size, t.mech.MetadataBytes(merged), hash)
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
	sh, kh, i := t.lookup(key)
	defer sh.mu.Unlock()
	size := len(payload)
	var hash uint64
	if i >= 0 {
		cur, err := t.current(sh, i)
		if err != nil {
			return err
		}
		st = t.mech.Sync(cur, st)
		w := codec.GetPooledWriter()
		w.String(key)
		mark := w.Len()
		t.mech.EncodeState(w, st)
		size = w.Len()
		hash = HashEncoded(w.Bytes()[mark:])
		codec.PutPooledWriter(w)
	} else {
		_, stateBytes, _ := splitRecord(payload) // parsed above: cannot fail
		hash = HashEncoded(stateBytes)
	}
	kept := t.installHot(sh, i, key, kh, st, size, t.mech.MetadataBytes(st), hash)
	t.evict(sh, kept)
	return nil
}

// Snapshot returns key's state: the installed state itself when hot (states
// are immutable, see core.Mechanism), a fresh decode of the segment copy
// when cold — deliberately not installed, so anti-entropy walks do not
// thrash the hot set.
func (t *Tiered) Snapshot(key string) (core.State, bool) {
	sh, _, i := t.lookup(key)
	defer sh.mu.Unlock()
	if i < 0 {
		return nil, false
	}
	if sh.slots[i].hot != 0 {
		return sh.state(i), true
	}
	return t.coldState(sh, i), true
}

// Len returns the number of keys (hot + cold), O(1).
func (t *Tiered) Len() int { return int(t.keyCount.Load()) }

// MetadataBytes returns the cached causal-metadata size for key — resident
// in the index, so no segment read even when cold.
func (t *Tiered) MetadataBytes(key string) int {
	sh, _, i := t.lookup(key)
	defer sh.mu.Unlock()
	if i < 0 {
		return 0
	}
	return int(sh.slots[i].meta)
}

// TotalMetadataBytes sums metadata across all keys, O(1).
func (t *Tiered) TotalMetadataBytes() int { return int(t.metaBytes.Load()) }

// Siblings returns the sibling count for key (0 if missing), decoding the
// segment copy without installing it when cold.
func (t *Tiered) Siblings(key string) int {
	sh, _, i := t.lookup(key)
	defer sh.mu.Unlock()
	if i < 0 {
		return 0
	}
	if sh.slots[i].hot != 0 {
		return t.mech.Siblings(sh.state(i))
	}
	return t.mech.Siblings(t.coldState(sh, i))
}

// KeyHash returns the divergence-detection hash of key's canonical state
// encoding. The hash is resident in the index slot (maintained at every
// install and recovery-scan site), so this is O(1) and — critically for
// anti-entropy over a mostly-cold keyspace — never reads a segment: a
// diff-free AE tick does zero segment I/O. (It used to pay one segment
// read per cold key per tick.)
func (t *Tiered) KeyHash(key string) uint64 {
	sh, _, i := t.lookup(key)
	defer sh.mu.Unlock()
	if i < 0 {
		return 0
	}
	return sh.slots[i].hash
}

// TreeDigest returns the Merkle tree hash at (level, index) — level 0 is
// the leaf layer, antientropy.TreeRootLevel() the root. A converged
// anti-entropy tick is one root compare instead of a keyspace walk.
func (t *Tiered) TreeDigest(level, index int) uint64 {
	return t.tree.Digest(level, index)
}

// EncodeKey appends key's canonical state encoding to w; cold keys copy
// the segment bytes straight through.
func (t *Tiered) EncodeKey(key string, w *codec.Writer) bool {
	sh, _, i := t.lookup(key)
	defer sh.mu.Unlock()
	if i < 0 {
		return false
	}
	if sh.slots[i].hot != 0 {
		t.mech.EncodeState(w, sh.state(i))
		return true
	}
	w.Append(t.coldStateBytes(sh, i))
	return true
}

// Stats returns a snapshot of the engine's counters.
func (t *Tiered) Stats() Stats {
	st := Stats{
		Engine:      t.Name(),
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
	}
	if t.wal == nil {
		return st
	}
	st.Segments = t.segs.count()
	_, _, st.WALSyncs = t.wal.Stats()
	return st
}

// Recovery returns what open found on disk.
func (t *Tiered) Recovery() RecoveryInfo { return t.recovery }

// WALSize returns the log's logical offset in bytes (monotone across
// checkpoints; the coordinate system FailWALAt offsets live in).
func (t *Tiered) WALSize() int64 {
	if t.wal == nil {
		return 0
	}
	return t.wal.Size()
}

// FailWALAt arms the WAL crash failpoint (see WAL.FailAt).
func (t *Tiered) FailWALAt(offset int64, onCrash func()) {
	if t.wal != nil {
		t.wal.FailAt(offset, onCrash)
	}
}

// InjectFaults attaches a transient disk-fault injector to the WAL (see
// fault.go).
func (t *Tiered) InjectFaults(f *Faults) {
	if t.wal != nil {
		t.wal.SetFaults(f)
	}
}

// flushDirty spills every dirty entry to the active segment, one shard
// lock at a time — the incremental-checkpoint walk. Dirty implies hot, so
// it walks each shard's LRU, O(hot) rather than O(keys). Spilled entries
// stay hot (the LRU order is untouched); only their dirty bit clears.
func (t *Tiered) flushDirty() error {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for h := sh.hot[0].next; h != 0; h = sh.hot[h].next {
			if i := sh.hot[h].slot; sh.slots[i].dirty {
				if err := t.spill(sh, i); err != nil {
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
// drop the retired log. A crash at any point leaves a directory Open
// recovers exactly.
//
// If a retired log from a previously failed checkpoint still exists,
// rotation is skipped this round: that log may be the only durable copy
// of acked writes, and rotating over it would destroy them. Its records
// are in memory (installed before it was rotated, or replayed by Open),
// so the walk below spills them and it is deleted afterwards; the active
// log just keeps growing until the next checkpoint rotates normally.
func (t *Tiered) Checkpoint() error {
	if t.wal == nil {
		return nil
	}
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
	if t.wal == nil {
		return nil
	}
	err := t.wal.Close()
	if cerr := t.segs.close(); err == nil {
		err = cerr
	}
	unlockDir(t.lock)
	t.lock = nil
	return err
}

// lockDir takes the exclusive directory lock: two owners appending to one
// log would interleave frames from independent file positions — mid-file
// damage recovery rightly refuses to repair. Held until Close; the kernel
// drops it if the process dies, so a crashed owner never wedges the
// directory.
func lockDir(dir string) (*os.File, error) {
	lf, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		return nil, fmt.Errorf("storage: open %s: already in use by another store (flock: %w)", dir, err)
	}
	return lf, nil
}

// unlockDir releases a lockDir handle.
func unlockDir(lf *os.File) {
	if lf != nil {
		syscall.Flock(int(lf.Fd()), syscall.LOCK_UN)
		lf.Close()
	}
}

// syncDir fsyncs a directory so a rename or create within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir %s: %w", dir, err)
	}
	return nil
}
