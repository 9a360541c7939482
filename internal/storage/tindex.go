// The tiered engine's resident key index, laid out so that nothing stored
// per key holds a Go pointer. A shard keeps its keys as slots in one flat
// array, their names in one byte arena and their lookup table in a map of
// integers, so the garbage collector has nothing to trace for the cold
// keyspace: marking costs what the hot set costs (bounded by MemBudget),
// not what the key count costs.
//
//   - slots: one pointer-free tentry per key, never deleted;
//   - arena: every key's bytes, appended in slot order;
//   - index: fnv64a(key) → slot, confirmed against the arena; a key whose
//     hash another key already owns lives in clash instead (nil until the
//     first collision), so correctness never rests on FNV being
//     collision-free;
//   - hot: the resident states and their LRU links, a slab sized by the
//     budget with a free list;
//   - buckets (engine-wide): Merkle leaf → (shard<<32 | slot) refs, so a
//     divergent bucket lists its keys without walking the index.
package storage

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/antientropy"
	"repro/internal/core"
)

// tentry is one key's index slot. It holds no Go pointer: the key lives in
// the shard's arena, the state (when hot) in the hot slab. Invariants
// (under the shard lock): dirty implies hot != 0 (a state newer than any
// segment copy is never dropped without a spill), and !dirty implies ref
// is valid.
type tentry struct {
	ref   segRef
	hash  uint64 // KeyHash of the current state — resident, so AE never faults
	koff  uint32 // key bytes are arena[koff : koff+klen]
	klen  int32
	size  int32 // encoded record payload bytes (key + state)
	meta  int32 // mechanism MetadataBytes of the current state
	hot   int32 // index into the hot slab; 0 = cold
	dirty bool  // in-memory state newer than ref's segment copy
}

// hotEntry is one resident state in a shard's hot slab. hot[0] is the LRU
// sentinel: its next is the most recently used entry, its prev the least.
// A free entry has slot -1 and is chained through next.
type hotEntry struct {
	st         core.State
	slot       int32
	prev, next int32
}

// tshard is one lock domain of the tiered engine: the key index plus the
// LRU of hot entries and their byte total.
type tshard struct {
	mu       sync.Mutex
	id       uint32 // position in Tiered.shards, the high half of a bucket ref
	slots    []tentry
	arena    []byte
	index    map[uint64]int32
	clash    map[string]int32
	hot      []hotEntry
	free     int32 // head of the hot slab's free list; 0 = empty
	hotBytes int64
	// scratch is the cold-read buffer (see segments.readAt); decoding
	// copies every byte a state keeps, so it is reused under mu.
	scratch []byte
}

func newTShard(id uint32) tshard {
	return tshard{id: id, index: make(map[uint64]int32), hot: make([]hotEntry, 1)}
}

// key returns slot i's key bytes, aliasing the arena.
func (sh *tshard) key(i int32) []byte {
	e := &sh.slots[i]
	return sh.arena[e.koff : e.koff+uint32(e.klen)]
}

// find returns key's slot, or -1. kh is fnv64a(key).
func (sh *tshard) find(key string, kh uint64) int32 {
	if i, ok := sh.index[kh]; ok && string(sh.key(i)) == key {
		return i
	}
	if sh.clash != nil {
		if i, ok := sh.clash[key]; ok {
			return i
		}
	}
	return -1
}

// add appends a cold, stateless slot for key under index hash kh. The
// caller guarantees key is absent and fills the slot in before unlocking.
func (sh *tshard) add(key string, kh uint64) int32 {
	if len(sh.arena)+len(key) > math.MaxUint32 {
		panic(fmt.Sprintf("storage: tiered shard %d: key arena exceeds 4 GiB", sh.id))
	}
	i := int32(len(sh.slots))
	sh.slots = append(sh.slots, tentry{koff: uint32(len(sh.arena)), klen: int32(len(key))})
	sh.arena = append(sh.arena, key...)
	if _, taken := sh.index[kh]; !taken {
		sh.index[kh] = i
		return i
	}
	if sh.clash == nil {
		sh.clash = make(map[string]int32)
	}
	sh.clash[key] = i
	return i
}

func (sh *tshard) pushFront(h int32) {
	first := sh.hot[0].next
	sh.hot[h].prev, sh.hot[h].next = 0, first
	sh.hot[first].prev = h
	sh.hot[0].next = h
}

func (sh *tshard) unlink(h int32) {
	e := &sh.hot[h]
	sh.hot[e.prev].next = e.next
	sh.hot[e.next].prev = e.prev
	e.prev, e.next = 0, 0
}

func (sh *tshard) touch(h int32) {
	if sh.hot[0].next != h {
		sh.unlink(h)
		sh.pushFront(h)
	}
}

// state returns slot i's resident state; the slot must be hot.
func (sh *tshard) state(i int32) core.State { return sh.hot[sh.slots[i].hot].st }

// admit makes cold slot i hot with st, at the front of the LRU, charging
// its size to the shard and the engine.
func (t *Tiered) admit(sh *tshard, i int32, st core.State) {
	h := sh.free
	if h != 0 {
		sh.free = sh.hot[h].next
	} else {
		sh.hot = append(sh.hot, hotEntry{})
		h = int32(len(sh.hot) - 1)
	}
	sh.hot[h] = hotEntry{st: st, slot: i}
	sh.pushFront(h)
	e := &sh.slots[i]
	e.hot = h
	sh.hotBytes += int64(e.size)
	t.cacheBytes.Add(int64(e.size))
}

// drop makes hot slot i cold, returning its slab entry to the free list.
// The caller has spilled a dirty state first, or is replacing it.
func (t *Tiered) drop(sh *tshard, i int32) {
	e := &sh.slots[i]
	h := e.hot
	sh.unlink(h)
	sh.hot[h] = hotEntry{slot: -1, next: sh.free}
	sh.free = h
	e.hot = 0
	sh.hotBytes -= int64(e.size)
	t.cacheBytes.Add(-int64(e.size))
}

// newSlot adds key to sh's index under hash kh and to its Merkle bucket.
// Called with the shard lock held.
func (t *Tiered) newSlot(sh *tshard, key string, kh uint64) int32 {
	i := sh.add(key, kh)
	t.keyCount.Add(1)
	t.buckets.add(antientropy.TreeBucketOf(key), uint64(sh.id)<<32|uint64(i))
	return i
}

// tbuckets is the engine-wide Merkle leaf membership: per leaf, the
// (shard<<32 | slot) refs of its keys, append-only because keys are never
// deleted. Lock order is shard.mu → tbuckets.mu.
type tbuckets struct {
	mu   sync.Mutex
	refs [][]uint64
}

func (b *tbuckets) add(bucket int, ref uint64) {
	b.mu.Lock()
	if b.refs == nil {
		b.refs = make([][]uint64, antientropy.TreeLeaves)
	}
	b.refs[bucket] = append(b.refs[bucket], ref)
	b.mu.Unlock()
}

// copyOf returns a private copy of one leaf's refs (nil when empty or out
// of range), so the caller can resolve them shard by shard without
// holding the bucket lock.
func (b *tbuckets) copyOf(bucket int) []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bucket < 0 || bucket >= len(b.refs) || len(b.refs[bucket]) == 0 {
		return nil
	}
	return slices.Clone(b.refs[bucket])
}

// TreeBucketKeys returns the keys in one Merkle leaf bucket, sorted. The
// bucket index is resident, so no segment I/O; the keys are substrings of
// one allocation.
func (t *Tiered) TreeBucketKeys(bucket int) []string {
	refs := t.buckets.copyOf(bucket)
	if refs == nil {
		return nil
	}
	slices.Sort(refs) // groups refs by shard: one lock per shard run
	var sb strings.Builder
	sb.Grow(32 * len(refs)) // typical keys fit; longer ones only cost a regrow
	for j := 0; j < len(refs); {
		sh := &t.shards[refs[j]>>32]
		sh.mu.Lock()
		for ; j < len(refs) && refs[j]>>32 == uint64(sh.id); j++ {
			sb.Write(sh.key(int32(uint32(refs[j]))))
			refs[j] = uint64(sb.Len()) // reuse the ref as the key's end offset
		}
		sh.mu.Unlock()
	}
	all := sb.String()
	out := make([]string, len(refs))
	start := 0
	for j, end := range refs {
		out[j] = all[start:end]
		start = int(end)
	}
	slices.Sort(out)
	return out
}

// Keys returns all keys, sorted. The index is fully resident, so this
// never touches a segment; each shard's keys are substrings of one copy
// of its arena.
func (t *Tiered) Keys() []string {
	out := make([]string, 0, t.Len())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		all := string(sh.arena)
		for _, e := range sh.slots {
			out = append(out, all[e.koff:e.koff+uint32(e.klen)])
		}
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return out
}
