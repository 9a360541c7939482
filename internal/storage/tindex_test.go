package storage

// Tests for the tiered engine's pointer-free key index (tindex.go): its
// heap footprint, the slot layout the garbage collector relies on, the
// structural invariants under random operations, hash clashes, and the
// allocation-free spill and bucket-listing paths.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/antientropy"
	"repro/internal/codec"
	"repro/internal/core"
)

func openTieredT(t *testing.T, dir string, shards int, budget int64) *Tiered {
	t.Helper()
	e, err := Open(core.NewDVV(), Options{
		Engine: EngineTiered, Dir: dir, Shards: shards, MemBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e.(*Tiered)
}

// checkIndex verifies every structural invariant of the index: the hot
// slab's byte total and LRU links, dirty ⇒ hot, the free list, key
// lookup, the O(1) counters, and the Merkle bucket membership.
func (t *Tiered) checkIndex() error {
	keys, meta, cache := 0, int64(0), int64(0)
	for si := range t.shards {
		sh := &t.shards[si]
		sh.mu.Lock()
		err := sh.check()
		for i, e := range sh.slots {
			if err != nil {
				break
			}
			if got := sh.find(string(sh.key(int32(i))), fnv64a(string(sh.key(int32(i))))); got != int32(i) {
				err = fmt.Errorf("key %q resolves to slot %d, want %d", sh.key(int32(i)), got, i)
			}
			meta += int64(e.meta)
		}
		keys += len(sh.slots)
		cache += sh.hotBytes
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	if t.Len() != keys {
		return fmt.Errorf("Len = %d, slots hold %d keys", t.Len(), keys)
	}
	if int64(t.TotalMetadataBytes()) != meta {
		return fmt.Errorf("TotalMetadataBytes = %d, slots sum to %d", t.TotalMetadataBytes(), meta)
	}
	if got := t.cacheBytes.Load(); got != cache {
		return fmt.Errorf("cacheBytes = %d, shards hold %d", got, cache)
	}
	groups := map[int][]string{}
	for _, k := range t.Keys() {
		b := antientropy.TreeBucketOf(k)
		groups[b] = append(groups[b], k)
	}
	for b, want := range groups {
		if got := t.TreeBucketKeys(b); !slices.Equal(got, want) {
			return fmt.Errorf("TreeBucketKeys(%d) = %q, want %q", b, got, want)
		}
	}
	t.buckets.mu.Lock()
	refs := 0
	for _, r := range t.buckets.refs {
		refs += len(r)
	}
	t.buckets.mu.Unlock()
	if refs != keys {
		return fmt.Errorf("buckets hold %d refs for %d keys", refs, keys)
	}
	return nil
}

// check verifies one shard's hot slab and slot flags. Called with the
// shard lock held.
func (sh *tshard) check() error {
	if sh.hot[0].slot != 0 || sh.hot[0].st != nil {
		return fmt.Errorf("LRU sentinel holds slot %d", sh.hot[0].slot)
	}
	onLRU := map[int32]bool{}
	var bytes int64
	for h, n := sh.hot[0].next, 0; h != 0; h, n = sh.hot[h].next, n+1 {
		if n >= len(sh.hot) || onLRU[h] {
			return fmt.Errorf("LRU cycles through entry %d", h)
		}
		he := &sh.hot[h]
		if sh.hot[he.next].prev != h {
			return fmt.Errorf("LRU entry %d: next %d points back to %d", h, he.next, sh.hot[he.next].prev)
		}
		if he.slot < 0 || int(he.slot) >= len(sh.slots) || sh.slots[he.slot].hot != h {
			return fmt.Errorf("LRU entry %d names slot %d, which does not point back", h, he.slot)
		}
		if he.st == nil {
			return fmt.Errorf("LRU entry %d (slot %d) holds no state", h, he.slot)
		}
		onLRU[h] = true
		bytes += int64(sh.slots[he.slot].size)
	}
	back := 0
	for h := sh.hot[0].prev; h != 0; h = sh.hot[h].prev {
		if back++; back > len(onLRU) || !onLRU[h] {
			return fmt.Errorf("backward LRU walk reaches entry %d off the forward list", h)
		}
	}
	if back != len(onLRU) {
		return fmt.Errorf("LRU is %d entries forward, %d backward", len(onLRU), back)
	}
	if bytes != sh.hotBytes {
		return fmt.Errorf("hotBytes = %d, hot slots sum to %d", sh.hotBytes, bytes)
	}
	hotSlots := 0
	for i, e := range sh.slots {
		if e.hot != 0 {
			hotSlots++
			if !onLRU[e.hot] {
				return fmt.Errorf("slot %d is hot at entry %d, which is off the LRU", i, e.hot)
			}
		} else if e.dirty {
			return fmt.Errorf("slot %d is dirty but cold", i)
		}
	}
	if hotSlots != len(onLRU) {
		return fmt.Errorf("%d hot slots, %d LRU entries", hotSlots, len(onLRU))
	}
	free := 0
	for h := sh.free; h != 0; h = sh.hot[h].next {
		if free++; free >= len(sh.hot) || onLRU[h] {
			return fmt.Errorf("free list reaches LRU entry %d or cycles", h)
		}
		if he := &sh.hot[h]; he.slot != -1 || he.st != nil || he.prev != 0 {
			return fmt.Errorf("free entry %d is still linked (slot %d)", h, he.slot)
		}
	}
	if free+len(onLRU)+1 != len(sh.hot) {
		return fmt.Errorf("hot slab has %d entries: %d on the LRU, %d free", len(sh.hot), len(onLRU), free)
	}
	if len(sh.index)+len(sh.clash) != len(sh.slots) {
		return fmt.Errorf("index %d + clash %d entries for %d slots", len(sh.index), len(sh.clash), len(sh.slots))
	}
	return nil
}

// TestTieredIndexFootprint pins what the index costs the heap: with every
// state cold, a key is a slot, its arena bytes, one integer map entry and
// one bucket ref — a fraction of a heap object, not the ~2.2 objects and
// ~196 bytes of a pointer-linked entry.
func TestTieredIndexFootprint(t *testing.T) {
	e := openTieredT(t, t.TempDir(), 0, 1)
	defer e.Close()
	const n = 50000
	m := e.Mechanism()
	before := heapNow()
	for i := 0; i < n; i++ {
		if _, err := e.Put(fmt.Sprintf("key-%06d", i), m.EmptyContext(), []byte("v"),
			core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
			t.Fatal(err)
		}
	}
	after := heapNow()
	objs := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / n
	perKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("index footprint: %.3f heap objects/key, %.1f B/key", objs, perKey)
	if objs > 0.25 {
		t.Errorf("%.3f heap objects per key, want <= 0.25", objs)
	}
	if perKey > 120 {
		t.Errorf("%.1f heap bytes per key, want <= 120", perKey)
	}
	if e.Len() != n {
		t.Fatalf("Len = %d, want %d", e.Len(), n)
	}
}

func heapNow() runtime.MemStats {
	// Two cycles: the first frees garbage, the second empties the
	// sync.Pool victim caches the first one filled.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// TestTieredSlotPointerFree fails if an index slot gains a field the
// garbage collector would have to trace.
func TestTieredSlotPointerFree(t *testing.T) {
	var walk func(rt reflect.Type, path string)
	walk = func(rt reflect.Type, path string) {
		switch rt.Kind() {
		case reflect.Struct:
			for i := 0; i < rt.NumField(); i++ {
				f := rt.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(rt.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: index slots must hold no pointer", path, rt.Kind())
		}
	}
	walk(reflect.TypeOf(tentry{}), "tentry")
	if got := reflect.TypeOf(segRef{}).Size(); got != 16 {
		t.Errorf("segRef is %d bytes, want 16", got)
	}
}

// TestTieredIndexInvariantsRandomOps runs a seeded mix of every engine
// operation over a tiny budget — so faults, evictions and spills churn
// the hot slab — and checks the whole index after each step.
func TestTieredIndexInvariantsRandomOps(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			dir := t.TempDir()
			e := openTieredT(t, dir, 4, 600)
			defer func() { e.Close() }()
			m := e.Mechanism()
			remote := New(core.NewDVV())
			rng := rand.New(rand.NewSource(seed))
			created := map[string]bool{}
			for step := 0; step < 600; step++ {
				k := fmt.Sprintf("key-%03d", rng.Intn(120))
				var op string
				switch r := rng.Intn(100); {
				case r < 30:
					op = "put"
					rr, _ := e.Get(k)
					if _, err := e.Put(k, rr.Ctx, []byte(fmt.Sprintf("v%d", step)),
						core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
						t.Fatal(err)
					}
					created[k] = true
				case r < 45:
					op = "sync"
					if _, err := remote.Put(k, m.EmptyContext(), []byte(fmt.Sprintf("r%d", step)),
						core.WriteInfo{Server: "S2", Client: "c2"}); err != nil {
						t.Fatal(err)
					}
					st, _ := remote.Snapshot(k)
					if err := e.SyncKey(k, st); err != nil {
						t.Fatal(err)
					}
					created[k] = true
				case r < 60:
					op = "get"
					if _, ok := e.Get(k); ok != created[k] {
						t.Fatalf("step %d: Get(%s) ok = %v, want %v", step, k, ok, created[k])
					}
				case r < 72:
					op = "snapshot"
					if _, ok := e.Snapshot(k); ok != created[k] {
						t.Fatalf("step %d: Snapshot(%s) ok = %v, want %v", step, k, ok, created[k])
					}
				case r < 84:
					op = "encode"
					if ok := e.EncodeKey(k, codec.NewWriter(64)); ok != created[k] {
						t.Fatalf("step %d: EncodeKey(%s) ok = %v, want %v", step, k, ok, created[k])
					}
				case r < 94:
					op = "checkpoint"
					if err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				default:
					op = "reopen"
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					e = openTieredT(t, dir, 4, 600)
				}
				if err := e.checkIndex(); err != nil {
					t.Fatalf("step %d (%s %s): %v", step, op, k, err)
				}
				if e.Len() != len(created) {
					t.Fatalf("step %d (%s %s): Len = %d, want %d", step, op, k, e.Len(), len(created))
				}
			}
		})
	}
}

// installForced installs key's first state through the slot constructor
// under a chosen index hash, bypassing the WAL: the way to make two keys
// clash without finding a real FNV-64 collision.
func installForced(t *testing.T, e *Tiered, key string, kh uint64, value string) {
	t.Helper()
	m := e.Mechanism()
	st, err := m.Put(m.NewState(), m.EmptyContext(), []byte(value), core.WriteInfo{Server: "S1", Client: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	w := codec.NewWriter(64)
	w.String(key)
	mark := w.Len()
	m.EncodeState(w, st)
	size, hash := w.Len(), HashEncoded(w.Bytes()[mark:])
	sh := e.shard(fnv64a(key))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.find(key, fnv64a(key)) >= 0 {
		t.Fatalf("%q already present", key)
	}
	kept := e.installHot(sh, -1, key, kh, st, size, m.MetadataBytes(st), hash)
	e.evict(sh, kept)
}

// TestTieredIndexHashClash: keys whose index hash another key already
// owns resolve through the clash map, and survive a checkpoint and a
// reopen, listed wherever the index lists keys.
func TestTieredIndexHashClash(t *testing.T) {
	dir := t.TempDir()
	e := openTieredT(t, dir, 1, 1)
	defer func() { e.Close() }()
	m := e.Mechanism()
	if _, err := e.Put("alpha", m.EmptyContext(), []byte("a"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
		t.Fatal(err)
	}
	forced := fnv64a("alpha")
	installForced(t, e, "beta", forced, "b")
	installForced(t, e, "gamma", forced, "g")
	if got := len(e.shards[0].clash); got != 2 {
		t.Fatalf("clash map holds %d keys, want 2", got)
	}
	// A write through the public API finds the clashed slot.
	rr, _ := e.Get("beta")
	if _, err := e.Put("beta", rr.Ctx, []byte("b2"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"alpha": "a", "beta": "b2", "gamma": "g"}
	verify := func(stage string) {
		t.Helper()
		if err := e.checkIndex(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if got := e.Keys(); !slices.Equal(got, []string{"alpha", "beta", "gamma"}) {
			t.Fatalf("%s: Keys = %q", stage, got)
		}
		for k, v := range want {
			rr, ok := e.Get(k)
			if !ok || len(rr.Values) != 1 || string(rr.Values[0]) != v {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q", stage, k, rr.Values, ok, v)
			}
			if !slices.Contains(e.TreeBucketKeys(antientropy.TreeBucketOf(k)), k) {
				t.Fatalf("%s: %s missing from its bucket", stage, k)
			}
		}
	}
	verify("clashed")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verify("checkpointed")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = openTieredT(t, dir, 1, 1)
	verify("reopened")
}

// TestTieredCheckpointSpillsExactlyDirty: the checkpoint walk spills the
// dirty states and nothing else, and what it spilled is what a reopen
// recovers.
func TestTieredCheckpointSpillsExactlyDirty(t *testing.T) {
	dir := t.TempDir()
	const n, k = 500, 37
	e := openTieredT(t, dir, 0, 0)
	putKeys(t, e, n)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = openTieredT(t, dir, 0, 0) // comes up entirely cold
	defer func() { e.Close() }()
	for i := 0; i < k; i++ {
		key := fmt.Sprintf("key-%04d", i*13)
		rr, _ := e.Get(key)
		if _, err := e.Put(key, rr.Ctx, []byte(fmt.Sprintf("new-%04d", i*13)),
			core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
			t.Fatal(err)
		}
	}
	spills0 := e.Stats().Spills
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Spills - spills0; got != k {
		t.Fatalf("checkpoint spilled %d states, want exactly the %d dirty ones", got, k)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = openTieredT(t, dir, 0, 0)
	if e.Len() != n {
		t.Fatalf("reopen recovered %d keys, want %d", e.Len(), n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%04d", i)
		want := fmt.Sprintf("val-%04d", i)
		if i%13 == 0 && i/13 < k {
			want = fmt.Sprintf("new-%04d", i)
		}
		rr, ok := e.Get(key)
		if !ok || len(rr.Values) != 1 || string(rr.Values[0]) != want {
			t.Fatalf("Get(%s) after reopen = %q, %v; want %q", key, rr.Values, ok, want)
		}
	}
}

// TestTieredSpillMatchesRecordEncoding: the spill path writes the key
// from the arena with BytesField; the segment record must be byte for
// byte the WAL record of the same (key, state), which writes the key with
// String, at every key-length varint boundary.
func TestTieredSpillMatchesRecordEncoding(t *testing.T) {
	e := openTieredT(t, t.TempDir(), 1, 1)
	defer e.Close()
	m := e.Mechanism()
	keys := []string{"", "k", string(bytes.Repeat([]byte("x"), 127)),
		string(bytes.Repeat([]byte("y"), 128)), string(bytes.Repeat([]byte("z"), 300))}
	states := map[string]core.State{}
	for _, k := range append(keys, "last") { // "last" evicts, so every key above spills
		if _, err := e.Put(k, m.EmptyContext(), []byte("v:"+k), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
			t.Fatal(err)
		}
		states[k], _ = e.Snapshot(k)
	}
	sh := &e.shards[0]
	for _, k := range keys {
		sh.mu.Lock()
		i := sh.find(k, fnv64a(k))
		if sh.slots[i].hot != 0 || sh.slots[i].dirty {
			sh.mu.Unlock()
			t.Fatalf("key of length %d still hot or dirty", len(k))
		}
		got, err := e.segs.readAt(sh.slots[i].ref, new([]byte))
		sh.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		w := codec.NewWriter(64) // the WAL writers' encoding of the same record
		w.String(k)
		m.EncodeState(w, states[k])
		if !bytes.Equal(got, w.Bytes()) {
			t.Errorf("key of length %d: spilled record %x, WAL record %x", len(k), got, w.Bytes())
		}
	}
}

var sinkKeys []string

// TestTieredTreeBucketKeysAllocs pins the bucket listing at one copy of
// the refs, one buffer for all key bytes and the result slice.
func TestTieredTreeBucketKeysAllocs(t *testing.T) {
	byBucket := map[int][]string{}
	bucket := -1
	for i := 0; bucket < 0; i++ {
		k := fmt.Sprintf("key-%06d", i)
		b := antientropy.TreeBucketOf(k)
		if byBucket[b] = append(byBucket[b], k); len(byBucket[b]) == 12 {
			bucket = b
		}
	}
	e := openTieredT(t, t.TempDir(), 0, tinyBudget)
	defer e.Close()
	m := e.Mechanism()
	for _, k := range byBucket[bucket] {
		if _, err := e.Put(k, m.EmptyContext(), []byte("v"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
			t.Fatal(err)
		}
	}
	want := slices.Sorted(slices.Values(byBucket[bucket]))
	if got := e.TreeBucketKeys(bucket); !slices.Equal(got, want) {
		t.Fatalf("TreeBucketKeys = %q, want %q", got, want)
	}
	if got := testing.AllocsPerRun(100, func() { sinkKeys = e.TreeBucketKeys(bucket) }); got > 3 {
		t.Errorf("TreeBucketKeys of a 12-key bucket: %.1f allocs, want <= 3", got)
	}
}

// TestTieredIndexConcurrentListing is the -race stress for the shared
// bucket refs: writers on every shard grow slots, arenas and buckets
// while listers resolve buckets and keys through them.
func TestTieredIndexConcurrentListing(t *testing.T) {
	e := openTieredT(t, t.TempDir(), 8, tinyBudget)
	defer e.Close()
	m := e.Mechanism()
	const writers, puts = 4, 150
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				key := fmt.Sprintf("w%d-key-%03d", g, i)
				if _, err := e.Put(key, m.EmptyContext(), []byte("v"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				key := fmt.Sprintf("w%d-key-%03d", g, i)
				for _, k := range e.TreeBucketKeys(antientropy.TreeBucketOf(key)) {
					if antientropy.TreeBucketOf(k) != antientropy.TreeBucketOf(key) {
						errs <- fmt.Errorf("bucket of %q lists %q", key, k)
						return
					}
				}
				if i%50 == 0 {
					e.Keys()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := e.checkIndex(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != writers*puts {
		t.Fatalf("Len = %d, want %d", e.Len(), writers*puts)
	}
}

// TestTieredColdReadReusesScratch: a cold Snapshot reads its segment frame
// into the shard's scratch buffer instead of a fresh one, and the decoded
// state owns its bytes — clobbering the scratch after the read leaves the
// state intact.
func TestTieredColdReadReusesScratch(t *testing.T) {
	e := openTieredT(t, t.TempDir(), 1, 1)
	defer e.Close()
	m := e.Mechanism()
	const key = "cold-key"
	// The second write evicts the first key: the budget holds one state.
	for _, k := range []string{key, "other"} {
		if _, err := e.Put(k, m.EmptyContext(), []byte("v"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
			t.Fatal(err)
		}
	}
	sh := &e.shards[0]
	sh.mu.Lock()
	hot := sh.slots[sh.find(key, fnv64a(key))].hot
	sh.mu.Unlock()
	if hot != 0 {
		t.Fatal("key still hot under a 1-byte budget")
	}
	if got := testing.AllocsPerRun(100, func() { sinkState, _ = e.Snapshot(key) }); got > 4 {
		t.Errorf("cold Snapshot: %.1f allocs/op, want <= 4", got)
	}

	st, _ := e.Snapshot(key)
	want := codec.NewWriter(64)
	m.EncodeState(want, st)
	sh.mu.Lock()
	if len(sh.scratch) == 0 {
		sh.mu.Unlock()
		t.Fatal("cold read left no scratch buffer")
	}
	buf := sh.scratch[:cap(sh.scratch)]
	for i := range buf {
		buf[i] = 0xFF
	}
	sh.mu.Unlock()
	got := codec.NewWriter(64)
	m.EncodeState(got, st)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("state changed when the read scratch was overwritten: %x, was %x", got.Bytes(), want.Bytes())
	}
	if vals := m.Read(st).Values; len(vals) != 1 || string(vals[0]) != "v" {
		t.Fatalf("cold state reads %q, want [v]", vals)
	}
}
