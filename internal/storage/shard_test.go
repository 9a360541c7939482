package storage

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dot"
)

func TestNewShardedRoundsUp(t *testing.T) {
	m := core.NewDVV()
	for _, tc := range []struct{ in, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128},
	} {
		if got := len(NewSharded(m, tc.in).shards); got != tc.want {
			t.Errorf("len(NewSharded(%d).shards) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := len(New(m).shards); got != DefaultShards {
		t.Errorf("len(New().shards) = %d, want %d", got, DefaultShards)
	}
}

// TestShardCountIsBehaviorInvisible runs the same operation sequence on a
// single-shard and a many-shard store and requires identical observable
// state.
func TestShardCountIsBehaviorInvisible(t *testing.T) {
	m := core.NewDVV()
	one, many := NewSharded(m, 1), NewSharded(m, 64)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%02d", i%13)
		val := []byte(fmt.Sprintf("v%d", i))
		wi := core.WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", i%5))}
		rr1, err1 := one.Put(key, m.EmptyContext(), val, wi)
		rr2, err2 := many.Put(key, m.EmptyContext(), val, wi)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("put %d: errors diverge: %v vs %v", i, err1, err2)
		}
		if !reflect.DeepEqual(vals(rr1), vals(rr2)) {
			t.Fatalf("put %d: results diverge: %v vs %v", i, vals(rr1), vals(rr2))
		}
	}
	if !reflect.DeepEqual(one.Keys(), many.Keys()) {
		t.Fatalf("keys diverge: %v vs %v", one.Keys(), many.Keys())
	}
	if one.TotalMetadataBytes() != many.TotalMetadataBytes() {
		t.Fatal("metadata accounting diverges across shard counts")
	}
	for _, k := range one.Keys() {
		if one.KeyHash(k) != many.KeyHash(k) {
			t.Fatalf("key %s hashes differently across shard counts", k)
		}
	}
}

func TestHashStateMatchesKeyHash(t *testing.T) {
	m := core.NewDVV()
	s := New(m)
	if HashState(m, nil) != 0 {
		t.Fatal("HashState(nil) != 0")
	}
	if s.KeyHash("missing") != 0 {
		t.Fatal("KeyHash(missing) != 0")
	}
	_, _ = s.Put("k", m.EmptyContext(), []byte("v1"), core.WriteInfo{Server: "S1", Client: "c1"})
	snap, ok := s.Snapshot("k")
	if !ok {
		t.Fatal("snapshot missing")
	}
	if HashState(m, snap) != s.KeyHash("k") {
		t.Fatal("HashState(snapshot) != KeyHash for the same state")
	}
}

// TestShardedStressRace hammers every store entry point concurrently on an
// overlapping keyspace; run with -race. There are no value-level
// assertions beyond "the store stays well-formed" — the point is the lock
// discipline.
func TestShardedStressRace(t *testing.T) {
	m := core.NewDVV()
	s := NewSharded(m, 8) // fewer shards than goroutines: forced contention
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}

	// A donor state to sync in.
	seedStore := New(m)
	_, _ = seedStore.Put(keys[0], m.EmptyContext(), []byte("seed"), core.WriteInfo{Server: "S9", Client: "seeder"})
	donor, _ := seedStore.Snapshot(keys[0])

	const iters = 300
	var wg sync.WaitGroup
	worker := func(g int, f func(i int, key string)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f(i, keys[(g+i)%len(keys)])
			}
		}()
	}
	for g := 0; g < 4; g++ {
		g := g
		worker(g, func(i int, key string) { // read-modify-write
			rr, _ := s.Get(key)
			_, _ = s.Put(key, rr.Ctx, []byte(fmt.Sprintf("g%d-%d", g, i)),
				core.WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", g))})
		})
	}
	worker(4, func(i int, key string) { // replication ingest of one shared state
		s.SyncKey(key, donor)
	})
	worker(5, func(i int, key string) { // anti-entropy read side
		_, _ = s.Snapshot(key)
		_ = s.KeyHash(key)
		_ = s.MetadataBytes(key)
		_ = s.Siblings(key)
	})
	worker(6, func(i int, key string) { // whole-store walks
		if i%20 != 0 {
			return
		}
		_ = s.Keys()
		_ = s.Len()
		_ = s.TotalMetadataBytes()
		_ = s.Stats()
	})
	wg.Wait()

	// The store must still be fully operational.
	for _, k := range s.Keys() {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %s listed but unreadable", k)
		}
	}
	rr, _ := s.Get(keys[0])
	after, err := s.Put(keys[0], rr.Ctx, []byte("final"), core.WriteInfo{Server: "S1", Client: "c-final"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals(after), []string{"final"}) {
		t.Fatalf("post-stress rmw = %v", vals(after))
	}
}
