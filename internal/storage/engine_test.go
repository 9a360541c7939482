package storage

// Engine-conformance suite: every contract test here runs over each
// residency a node's engine can have, so they can never drift apart on the
// surface the node consumes —
//
//	nodir  — Open with no directory: in memory, nothing on disk
//	memory — Open in a directory under the EngineMemory policy (no byte
//	         budget)
//	tiered — Open in a directory with a deliberately tiny budget, so
//	         spill/fault paths are always exercised

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/antientropy"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
)

// tinyBudget forces the tiered engine to spill almost everything: with
// ~100-byte records and 64 shards this keeps at most a few states hot per
// shard.
const tinyBudget = 16 << 10

// nodir names the suite's arm with no data directory.
const nodir = "nodir"

type engineTest func(t *testing.T, kind string, open func(t *testing.T, dir string) Engine)

// forEachEngine runs fn once per arm; open ignores dir on the nodir arm.
func forEachEngine(t *testing.T, fn engineTest) {
	t.Helper()
	runEngines(t, []string{nodir, EngineMemory, EngineTiered}, fn)
}

// forEachDurable runs fn once per residency policy, each opening a fresh
// engine in its directory.
func forEachDurable(t *testing.T, fn engineTest) {
	t.Helper()
	runEngines(t, []string{EngineMemory, EngineTiered}, fn)
}

// skipNoDir skips a test whose subject is what a directory holds across
// a reopen or a crash; an engine with no directory has nothing there.
func skipNoDir(t *testing.T, kind string) {
	t.Helper()
	if kind == nodir {
		t.Skip("no directory: nothing survives Close")
	}
}

func runEngines(t *testing.T, kinds []string, fn engineTest) {
	t.Helper()
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			fn(t, kind, func(t *testing.T, dir string) Engine {
				t.Helper()
				o := Options{Engine: kind, Dir: dir, Fsync: false, MemBudget: tinyBudget}
				if kind == nodir {
					o = Options{}
				}
				e, err := Open(core.NewDVV(), o)
				if err != nil {
					t.Fatal(err)
				}
				return e
			})
		})
	}
}

func putKeys(t *testing.T, e Engine, n int) {
	t.Helper()
	m := e.Mechanism()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if _, err := e.Put(key, m.EmptyContext(), []byte(fmt.Sprintf("val-%04d", i)),
			core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineOpenSelectsKind: a data directory always opens the tiered
// engine; the kind selects only its residency policy.
func TestEngineOpenSelectsKind(t *testing.T) {
	forEachDurable(t, func(t *testing.T, kind string, open func(*testing.T, string) Engine) {
		e := open(t, t.TempDir())
		defer e.Close()
		if _, ok := e.(*Tiered); !ok || e.Name() != EngineTiered {
			t.Fatalf("Open(%s) = %T named %q, want the tiered engine", kind, e, e.Name())
		}
		if _, err := e.Put("k", core.NewDVV().EmptyContext(), []byte("v"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
			t.Fatal(err)
		}
		if e.WALSize() == 0 {
			t.Fatal("engine opened with a dir must log its writes")
		}
	})
}

func TestEngineOpenRejectsUnknown(t *testing.T) {
	if _, err := Open(core.NewDVV(), Options{Engine: "bogus", Dir: t.TempDir()}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := Open(core.NewDVV(), Options{Engine: EngineTiered}); err == nil {
		t.Fatal("tiered engine without a dir accepted")
	}
}

// TestNoDirEngineContract pins what an engine with no directory is: the
// memory engine, with a durability surface that does nothing and Stats
// that report no WAL or segment activity.
func TestNoDirEngineContract(t *testing.T) {
	m := core.NewDVV()
	opened, err := Open(m, Options{Faults: new(Faults), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]Engine{"New": New(m), "Open": opened} {
		t.Run(name, func(t *testing.T) {
			if e.Name() != EngineMemory {
				t.Fatalf("Name = %q, want %q", e.Name(), EngineMemory)
			}
			crashed := false
			e.FailWALAt(0, func() { crashed = true })
			f := new(Faults)
			f.FailNextAppends(1)
			f.FailWrites(true)
			e.InjectFaults(f)
			putKeys(t, e, 50)
			if crashed || f.Stats() != (FaultStats{}) {
				t.Fatalf("armed failpoint or faults fired: crashed=%v %+v", crashed, f.Stats())
			}
			if e.WALSize() != 0 {
				t.Fatalf("WALSize = %d", e.WALSize())
			}
			if e.Recovery() != (RecoveryInfo{}) {
				t.Fatalf("Recovery = %+v", e.Recovery())
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.Engine != EngineMemory || st.Puts != 50 || st.Keys != 50 {
				t.Fatalf("Stats = %+v", st)
			}
			if st.WALAppends != 0 || st.WALSyncs != 0 || st.Checkpoints != 0 ||
				st.Spills != 0 || st.Faults != 0 || st.Segments != 0 || st.CacheMisses != 0 {
				t.Fatalf("WAL or segment counters moved: %+v", st)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestEngineConformanceBasics: reads, listings and the O(1) counters agree
// with per-key ground truth on every engine.
func TestEngineConformanceBasics(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind string, open func(*testing.T, string) Engine) {
		e := open(t, t.TempDir())
		defer e.Close()
		m := e.Mechanism()
		const n = 300
		putKeys(t, e, n)

		if e.Len() != n {
			t.Fatalf("Len = %d, want %d", e.Len(), n)
		}
		keys := e.Keys()
		if len(keys) != n {
			t.Fatalf("Keys() returned %d keys, want %d", len(keys), n)
		}
		total := 0
		for i, k := range keys {
			if want := fmt.Sprintf("key-%04d", i); k != want {
				t.Fatalf("Keys()[%d] = %q, want %q (sorted)", i, k, want)
			}
			rr, ok := e.Get(k)
			if !ok || len(rr.Values) != 1 || string(rr.Values[0]) != fmt.Sprintf("val-%04d", i) {
				t.Fatalf("Get(%s) = %v, %v", k, rr.Values, ok)
			}
			if e.Siblings(k) != 1 {
				t.Fatalf("Siblings(%s) = %d, want 1", k, e.Siblings(k))
			}
			mb := e.MetadataBytes(k)
			if mb <= 0 {
				t.Fatalf("MetadataBytes(%s) = %d", k, mb)
			}
			total += mb
			// KeyHash must equal the hash of the snapshot's canonical
			// encoding — on tiered this crosses the cold raw-bytes path.
			st, ok := e.Snapshot(k)
			if !ok {
				t.Fatalf("Snapshot(%s) missing", k)
			}
			if e.KeyHash(k) != HashState(m, st) {
				t.Fatalf("KeyHash(%s) disagrees with snapshot hash", k)
			}
			w := codec.NewWriter(64)
			if !e.EncodeKey(k, w) {
				t.Fatalf("EncodeKey(%s) = false", k)
			}
			if HashEncoded(w.Bytes()) != e.KeyHash(k) {
				t.Fatalf("EncodeKey(%s) bytes disagree with KeyHash", k)
			}
		}
		if e.TotalMetadataBytes() != total {
			t.Fatalf("TotalMetadataBytes = %d, want %d (sum of per-key)", e.TotalMetadataBytes(), total)
		}
		if _, ok := e.Get("missing"); ok {
			t.Fatal("Get(missing) = true")
		}
		if e.KeyHash("missing") != 0 || e.Siblings("missing") != 0 || e.MetadataBytes("missing") != 0 {
			t.Fatal("missing key must report zeroes")
		}
	})
}

// TestEngineConformanceHashesMatchAcrossEngines: the same workload yields
// byte-identical canonical encodings on every engine — the property
// anti-entropy between a non-durable node and a durable one depends on.
func TestEngineConformanceHashesMatchAcrossEngines(t *testing.T) {
	hashes := map[string][]uint64{}
	forEachEngine(t, func(t *testing.T, kind string, open func(*testing.T, string) Engine) {
		e := open(t, t.TempDir())
		defer e.Close()
		putKeys(t, e, 200)
		for _, k := range e.Keys() {
			hashes[k] = append(hashes[k], e.KeyHash(k))
		}
	})
	for k, hs := range hashes {
		if len(hs) != 3 || hs[0] != hs[1] || hs[0] != hs[2] {
			t.Fatalf("key %s hashes differ across engines: %v", k, hs)
		}
	}
}

// TestEngineConformanceSyncKey: merge semantics, the empty-into-absent
// no-op and the no-op-merge WAL skip hold on every engine.
func TestEngineConformanceSyncKey(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind string, open func(*testing.T, string) Engine) {
		e := open(t, t.TempDir())
		defer e.Close()
		m := e.Mechanism()

		// Remote state to merge: build it in a scratch in-memory store.
		scratch := New(m)
		if _, err := scratch.Put("k", m.EmptyContext(), []byte("remote"), core.WriteInfo{Server: "S2", Client: "c9"}); err != nil {
			t.Fatal(err)
		}
		remote, _ := scratch.Snapshot("k")

		if _, err := e.Put("k", m.EmptyContext(), []byte("local"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
			t.Fatal(err)
		}
		if err := e.SyncKey("k", remote); err != nil {
			t.Fatal(err)
		}
		if got := e.Siblings("k"); got != 2 {
			t.Fatalf("Siblings after concurrent merge = %d, want 2", got)
		}

		// Re-merging the same state must be a no-op that does not grow the
		// WAL (converged anti-entropy rounds must not churn the log).
		before := e.WALSize()
		if err := e.SyncKey("k", remote); err != nil {
			t.Fatal(err)
		}
		if e.WALSize() != before {
			t.Fatalf("no-op merge grew the WAL by %d bytes", e.WALSize()-before)
		}

		// Empty state merged into an absent key must not create it.
		if err := e.SyncKey("ghost", m.NewState()); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.Get("ghost"); ok || e.Len() != 1 {
			t.Fatalf("empty merge created a key (len=%d)", e.Len())
		}
	})
}

// TestEngineConformanceSharedStates: Snapshot hands out the installed
// state itself, so readers encode and read it while writers replace it
// through Put and SyncKey. Under -race a write to a shared state is a
// reported race; without it, a snapshot whose encoding changes after it
// was taken fails the test.
func TestEngineConformanceSharedStates(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind string, open func(*testing.T, string) Engine) {
		e := open(t, t.TempDir())
		defer e.Close()
		m := e.Mechanism()
		const key = "shared"
		scratch := New(m)
		for i := 0; i < 4; i++ {
			if _, err := scratch.Put(key, m.EmptyContext(), []byte(fmt.Sprintf("remote-%d", i)),
				core.WriteInfo{Server: "S2", Client: "c9"}); err != nil {
				t.Fatal(err)
			}
		}
		remote, _ := scratch.Snapshot(key)
		if _, err := e.Put(key, m.EmptyContext(), []byte("seed"), core.WriteInfo{Server: "S1", Client: "c0"}); err != nil {
			t.Fatal(err)
		}

		encode := func(st core.State) []byte {
			w := codec.NewWriter(256)
			m.EncodeState(w, st)
			return w.Bytes()
		}
		const iters = 300
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(2)
			go func() { // writer: read-modify-write, plus a replica push every fourth op
				defer wg.Done()
				for i := 0; i < iters; i++ {
					rr, _ := e.Get(key)
					if _, err := e.Put(key, rr.Ctx, []byte(fmt.Sprintf("w%d-%d", g, i)),
						core.WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", g))}); err != nil {
						t.Error(err)
						return
					}
					if i%4 == 0 {
						if err := e.SyncKey(key, remote); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			go func() { // reader: encode and read the shared state
				defer wg.Done()
				for i := 0; i < iters; i++ {
					st, ok := e.Snapshot(key)
					if !ok {
						t.Error("Snapshot lost the key")
						return
					}
					before := encode(st)
					rr := m.Read(st)
					if len(rr.Values) != m.Siblings(st) {
						t.Errorf("Read saw %d values, Siblings %d", len(rr.Values), m.Siblings(st))
					}
					runtime.Gosched()
					if after := encode(st); !bytes.Equal(before, after) {
						t.Errorf("snapshot changed under a concurrent write: %x -> %x", before, after)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

var sinkState core.State

// TestReadPathAllocBounds pins the no-copy read path: a hot key's Snapshot
// returns the installed state itself, so it allocates nothing on any
// engine, however many siblings the key holds.
func TestReadPathAllocBounds(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind string, open func(*testing.T, string) Engine) {
		e := open(t, t.TempDir())
		defer e.Close()
		m := e.Mechanism()
		const key, siblings = "hot", 8
		for i := 0; i < siblings; i++ {
			if _, err := e.Put(key, m.EmptyContext(), []byte(fmt.Sprintf("v%d", i)),
				core.WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		if got := e.Siblings(key); got != siblings {
			t.Fatalf("Siblings = %d, want %d", got, siblings)
		}
		if got := testing.AllocsPerRun(100, func() { sinkState, _ = e.Snapshot(key) }); got != 0 {
			t.Errorf("Snapshot of a hot key: %.1f allocs/op, want 0", got)
		}
	})
}

// TestEngineConformanceReopen: everything written before Close is intact
// after reopen, with identical canonical encodings.
func TestEngineConformanceReopen(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind string, open func(*testing.T, string) Engine) {
		skipNoDir(t, kind)
		dir := t.TempDir()
		e := open(t, dir)
		const n = 400
		putKeys(t, e, n)
		want := map[string]uint64{}
		for _, k := range e.Keys() {
			want[k] = e.KeyHash(k)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		r := open(t, dir)
		defer r.Close()
		if r.Len() != n {
			t.Fatalf("recovered Len = %d, want %d", r.Len(), n)
		}
		rec := r.Recovery()
		if rec.SnapshotKeys+rec.WALRecords == 0 {
			t.Fatal("recovery reports nothing replayed or loaded")
		}
		total := 0
		for k, h := range want {
			if r.KeyHash(k) != h {
				t.Fatalf("key %s changed across reopen", k)
			}
			total += r.MetadataBytes(k)
		}
		if r.TotalMetadataBytes() != total {
			t.Fatalf("recovered TotalMetadataBytes = %d, want %d", r.TotalMetadataBytes(), total)
		}
	})
}

// TestEngineConformanceCrashFailpoint is the store-level E2 core under
// both policies: acked writes survive a WAL tear, the torn write is neither
// acked nor visible, and recovery truncates the tail.
func TestEngineConformanceCrashFailpoint(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind string, open func(*testing.T, string) Engine) {
		skipNoDir(t, kind)
		dir := t.TempDir()
		e := open(t, dir)
		m := e.Mechanism()
		var acked []string
		i := 0
		put := func() error {
			k := fmt.Sprintf("key-%03d", i)
			_, err := e.Put(k, m.EmptyContext(), []byte("v"), core.WriteInfo{Server: "S1", Client: "c1"})
			if err == nil {
				acked = append(acked, k)
			}
			i++
			return err
		}
		for j := 0; j < 50; j++ {
			if err := put(); err != nil {
				t.Fatal(err)
			}
		}
		crashed := make(chan struct{})
		e.FailWALAt(e.WALSize()+13, func() { close(crashed) })
		if err := put(); !errors.Is(err, ErrWALCrashed) {
			t.Fatalf("put across failpoint = %v, want ErrWALCrashed", err)
		}
		<-crashed
		if _, ok := e.Get(fmt.Sprintf("key-%03d", i-1)); ok {
			t.Fatal("unacked torn write visible in memory")
		}
		if err := e.Checkpoint(); err == nil {
			t.Fatal("checkpoint succeeded on a crashed engine")
		}
		e.Close()

		r := open(t, dir)
		defer r.Close()
		if r.Recovery().TornBytes == 0 {
			t.Fatal("expected torn bytes at the crash point")
		}
		for _, k := range acked {
			if _, ok := r.Get(k); !ok {
				t.Fatalf("acked key %s lost", k)
			}
		}
		if r.Len() != len(acked) {
			t.Fatalf("recovered %d keys, want %d", r.Len(), len(acked))
		}
	})
}

// TestEngineConformanceConcurrentCheckpoint is the -race stress: writers,
// readers and mergers run against a checkpoint loop, then a reopen (with
// a directory) proves nothing acked was lost.
func TestEngineConformanceConcurrentCheckpoint(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind string, open func(*testing.T, string) Engine) {
		dir := t.TempDir()
		e := open(t, dir)
		m := e.Mechanism()
		const writers, puts = 4, 40
		errs := make(chan error, writers+1)
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < puts; i++ {
					key := fmt.Sprintf("w%d-key-%03d", g, i)
					if _, err := e.Put(key, m.EmptyContext(), []byte("payload"),
						core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
						errs <- err
						return
					}
					e.Get(key)
					e.KeyHash(key)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := e.Checkpoint(); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if e.Len() != writers*puts {
			t.Fatalf("Len = %d, want %d", e.Len(), writers*puts)
		}
		e.Close()
		if kind == nodir {
			return
		}

		r := open(t, dir)
		defer r.Close()
		if r.Len() != writers*puts {
			t.Fatalf("recovered Len = %d, want %d", r.Len(), writers*puts)
		}
	})
}

// TestTieredEvictionBounds: the hot set stays within the byte budget while
// the engine holds far more data, and the spill/fault counters move.
func TestTieredEvictionBounds(t *testing.T) {
	e, err := Open(core.NewDVV(), Options{
		Engine: EngineTiered, Dir: t.TempDir(), MemBudget: tinyBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 2000
	putKeys(t, e, n)
	st := e.Stats()
	if st.CacheBytes > tinyBudget {
		t.Fatalf("cache %d bytes exceeds %d budget", st.CacheBytes, tinyBudget)
	}
	if st.Keys != n {
		t.Fatalf("keys = %d, want %d", st.Keys, n)
	}
	if st.Spills == 0 {
		t.Fatal("no spills despite budget pressure")
	}
	if st.Segments == 0 {
		t.Fatal("no segments created")
	}
	// Read everything back: cold keys fault in, values intact, and the
	// cache stays bounded throughout.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		rr, ok := e.Get(k)
		if !ok || len(rr.Values) != 1 || string(rr.Values[0]) != fmt.Sprintf("val-%04d", i) {
			t.Fatalf("Get(%s) after eviction = %v, %v", k, rr.Values, ok)
		}
	}
	st = e.Stats()
	if st.Faults == 0 {
		t.Fatal("full read-back faulted nothing despite tiny budget")
	}
	if st.CacheBytes > tinyBudget {
		t.Fatalf("cache %d bytes exceeds %d budget after read-back", st.CacheBytes, tinyBudget)
	}
	if st.CacheHits+st.CacheMisses == 0 {
		t.Fatal("hit/miss counters never moved")
	}
}

// TestTieredColdPathsMatchHot: every read-only accessor returns the same
// answer for a cold key as for the same key once hot.
func TestTieredColdPathsMatchHot(t *testing.T) {
	e, err := Open(core.NewDVV(), Options{
		Engine: EngineTiered, Dir: t.TempDir(), MemBudget: 1, // evict everything
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	putKeys(t, e, 50)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%04d", i)
		coldHash := e.KeyHash(k)
		coldSib := e.Siblings(k)
		coldMeta := e.MetadataBytes(k)
		w := codec.NewWriter(64)
		e.EncodeKey(k, w)
		coldBytes := append([]byte(nil), w.Bytes()...)

		e.Get(k) // fault it hot (budget 1 byte still keeps the touched key)
		if e.KeyHash(k) != coldHash {
			t.Fatalf("KeyHash(%s) cold != hot", k)
		}
		if e.Siblings(k) != coldSib || e.MetadataBytes(k) != coldMeta {
			t.Fatalf("Siblings/MetadataBytes(%s) cold != hot", k)
		}
		w2 := codec.NewWriter(64)
		e.EncodeKey(k, w2)
		if string(coldBytes) != string(w2.Bytes()) {
			t.Fatalf("EncodeKey(%s) cold != hot", k)
		}
	}
}

// TestTieredStatsEngineFields pins the Stats surface both CLIs print, and
// the memory policy's contract: a dataset that overflows a tiny budget
// never spills under EngineMemory, and reads it all back from memory.
func TestTieredStatsEngineFields(t *testing.T) {
	const n = 2000
	for _, kind := range []string{EngineMemory, EngineTiered} {
		t.Run(kind, func(t *testing.T) {
			e, err := Open(core.NewDVV(), Options{Engine: kind, Dir: t.TempDir(), MemBudget: tinyBudget})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			putKeys(t, e, n)
			for i := 0; i < n; i++ {
				e.Get(fmt.Sprintf("key-%04d", i))
			}
			st := e.Stats()
			if st.Engine != EngineTiered {
				t.Fatalf("Stats.Engine = %q", st.Engine)
			}
			if st.Puts != n || st.Keys != n {
				t.Fatalf("Puts=%d Keys=%d", st.Puts, st.Keys)
			}
			spilled := st.Spills > 0 || st.Faults > 0 || st.CacheMisses > 0
			if want := kind == EngineTiered; spilled != want {
				t.Fatalf("%s: spills=%d faults=%d misses=%d, want spilling=%v",
					kind, st.Spills, st.Faults, st.CacheMisses, want)
			}
		})
	}
	if got := New(core.NewDVV()).Stats().Engine; got != EngineMemory {
		t.Fatalf("in-memory Stats.Engine = %q", got)
	}
}

// TestEngineConformanceMerkleTreeMatchesRebuild is the incremental-tree
// property test: after an arbitrary interleaved sequence of Put, SyncKey,
// Checkpoint and close/reopen operations, the tree every engine maintains
// incrementally at install time must equal a from-scratch rebuild over
// KeyHash ground truth — at every level, on every arm (the nodir arm
// verifies where the others reopen).
func TestEngineConformanceMerkleTreeMatchesRebuild(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind string, open func(*testing.T, string) Engine) {
		dir := t.TempDir()
		e := open(t, dir)
		defer func() { e.Close() }()
		m := e.Mechanism()
		// A second store supplies remote states for SyncKey, so merges
		// carry dots from a different server and actually change states.
		remote := New(core.NewDVV())
		rng := rand.New(rand.NewSource(4242))
		key := func() string { return fmt.Sprintf("key-%03d", rng.Intn(300)) }

		verify := func(stage string) {
			t.Helper()
			truth := make(map[string]uint64)
			seen := 0
			for _, k := range e.Keys() {
				truth[k] = e.KeyHash(k)
				b := antientropy.TreeBucketOf(k)
				found := false
				for _, bk := range e.TreeBucketKeys(b) {
					if bk == k {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: key %q missing from its bucket %d", stage, k, b)
				}
				seen++
			}
			want := antientropy.BuildTree(truth)
			for level := 0; level < antientropy.TreeLevels(); level++ {
				for i := 0; i < antientropy.TreeLevelSize(level); i++ {
					if g, w := e.TreeDigest(level, i), want.Digest(level, i); g != w {
						t.Fatalf("%s: %d keys: TreeDigest(%d,%d) = %x, want rebuild %x",
							stage, seen, level, i, g, w)
					}
				}
			}
		}

		for op := 0; op < 600; op++ {
			switch r := rng.Intn(100); {
			case r < 55: // client write
				k := key()
				rr, _ := e.Get(k)
				if _, err := e.Put(k, rr.Ctx, []byte(fmt.Sprintf("v%d", op)),
					core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
					t.Fatal(err)
				}
			case r < 85: // replica merge from a diverged peer
				k := key()
				if _, err := remote.Put(k, m.EmptyContext(), []byte(fmt.Sprintf("r%d", op)),
					core.WriteInfo{Server: "S2", Client: "c2"}); err != nil {
					t.Fatal(err)
				}
				st, _ := remote.Snapshot(k)
				if err := e.SyncKey(k, st); err != nil {
					t.Fatal(err)
				}
			case r < 95: // checkpoint (spills/compacts; must not move the tree)
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			default: // crash-free restart: recovery must rebuild the same tree
				verify("pre-reopen")
				if kind == nodir {
					continue
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				e = open(t, dir)
				verify("post-reopen")
			}
		}
		verify("final")
	})
}

// TestTieredKeyHashAndTreeZeroSegmentIO: with the hash resident in the
// index, KeyHash and the whole tree surface must be served without a
// single segment read, even when nearly every state is cold — the fix for
// anti-entropy faulting in the entire keyspace once per tick.
func TestTieredKeyHashAndTreeZeroSegmentIO(t *testing.T) {
	e, err := Open(core.NewDVV(), Options{
		Engine: EngineTiered, Dir: t.TempDir(), Fsync: false, MemBudget: tinyBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	putKeys(t, e, 2000)
	st := e.Stats()
	if st.Spills == 0 { // sanity: the tiny budget really pushed states cold
		t.Fatal("no spills; budget did not force cold states")
	}
	faults0 := st.Faults
	keys := e.Keys()
	for _, k := range keys {
		if e.KeyHash(k) == 0 {
			t.Fatalf("KeyHash(%q) = 0 for an existing key", k)
		}
	}
	for level := 0; level < antientropy.TreeLevels(); level++ {
		for i := 0; i < antientropy.TreeLevelSize(level); i++ {
			_ = e.TreeDigest(level, i)
		}
	}
	for _, k := range keys {
		_ = e.TreeBucketKeys(antientropy.TreeBucketOf(k))
	}
	if got := e.Stats().Faults; got != faults0 {
		t.Fatalf("hash/tree reads faulted %d segment records in", got-faults0)
	}
	// The resident hashes must still be the real thing: spot-check against
	// the encode-derived hash of a snapshot.
	for _, k := range keys[:20] {
		snap, ok := e.Snapshot(k)
		if !ok {
			t.Fatalf("snapshot %q missing", k)
		}
		if e.KeyHash(k) != HashState(e.Mechanism(), snap) {
			t.Fatalf("resident hash for %q diverges from encoded state", k)
		}
	}
}
