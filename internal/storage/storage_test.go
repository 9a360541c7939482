package storage

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dot"
)

func vals(rr core.ReadResult) []string {
	out := make([]string, len(rr.Values))
	for i, v := range rr.Values {
		out[i] = string(v)
	}
	sort.Strings(out)
	return out
}

func TestGetMissingKey(t *testing.T) {
	s := New(core.NewDVV())
	rr, ok := s.Get("nope")
	if ok {
		t.Fatal("missing key reported present")
	}
	if len(rr.Values) != 0 || rr.Ctx == nil {
		t.Fatal("missing key should read empty with empty context")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, m := range core.Registry() {
		t.Run(name, func(t *testing.T) {
			s := New(m)
			rr, err := s.Put("k", m.EmptyContext(), []byte("v1"), core.WriteInfo{Server: "S1", Client: "c1"})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(vals(rr), []string{"v1"}) {
				t.Fatalf("put result = %v", vals(rr))
			}
			got, ok := s.Get("k")
			if !ok || !reflect.DeepEqual(vals(got), []string{"v1"}) {
				t.Fatalf("get = %v ok=%v", vals(got), ok)
			}
			// Read-modify-write through the returned context.
			rr2, err := s.Put("k", got.Ctx, []byte("v2"), core.WriteInfo{Server: "S1", Client: "c1"})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(vals(rr2), []string{"v2"}) {
				t.Fatalf("rmw = %v", vals(rr2))
			}
		})
	}
}

func TestSyncKeyMergesSiblings(t *testing.T) {
	m := core.NewDVV()
	a, b := New(m), New(m)
	_, _ = a.Put("k", m.EmptyContext(), []byte("v1"), core.WriteInfo{Server: "S1", Client: "c1"})
	_, _ = b.Put("k", m.EmptyContext(), []byte("v2"), core.WriteInfo{Server: "S2", Client: "c2"})
	st, ok := b.Snapshot("k")
	if !ok {
		t.Fatal("snapshot missing")
	}
	a.SyncKey("k", st)
	rr, _ := a.Get("k")
	if !reflect.DeepEqual(vals(rr), []string{"v1", "v2"}) {
		t.Fatalf("merged = %v", vals(rr))
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	m := core.NewDVV()
	s := New(m)
	_, _ = s.Put("k", m.EmptyContext(), []byte("v1"), core.WriteInfo{Server: "S1", Client: "c1"})
	snap, _ := s.Snapshot("k")
	// Mutate the store after snapshotting.
	rr, _ := s.Get("k")
	_, _ = s.Put("k", rr.Ctx, []byte("v2"), core.WriteInfo{Server: "S1", Client: "c1"})
	// Snapshot still reads v1.
	got := m.Read(snap)
	if len(got.Values) != 1 || string(got.Values[0]) != "v1" {
		t.Fatalf("snapshot mutated: %v", vals(got))
	}
}

func TestKeysAndLen(t *testing.T) {
	m := core.NewDVV()
	s := New(m)
	for _, k := range []string{"b", "a", "c"} {
		_, _ = s.Put(k, m.EmptyContext(), []byte("v"), core.WriteInfo{Server: "S1", Client: "c1"})
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Keys = %v", got)
	}
}

func TestMetadataAndSiblings(t *testing.T) {
	m := core.NewDVV()
	s := New(m)
	if s.MetadataBytes("k") != 0 || s.Siblings("k") != 0 {
		t.Fatal("missing key has metadata")
	}
	_, _ = s.Put("k", m.EmptyContext(), []byte("v1"), core.WriteInfo{Server: "S1", Client: "c1"})
	_, _ = s.Put("k", m.EmptyContext(), []byte("v2"), core.WriteInfo{Server: "S1", Client: "c2"})
	if s.Siblings("k") != 2 {
		t.Fatalf("Siblings = %d", s.Siblings("k"))
	}
	if s.MetadataBytes("k") <= 0 || s.TotalMetadataBytes() != s.MetadataBytes("k") {
		t.Fatalf("metadata accounting wrong: %d vs %d", s.MetadataBytes("k"), s.TotalMetadataBytes())
	}
}

func TestKeyHashDetectsDivergence(t *testing.T) {
	m := core.NewDVV()
	a, b := New(m), New(m)
	if a.KeyHash("k") != 0 {
		t.Fatal("missing key hash != 0")
	}
	_, _ = a.Put("k", m.EmptyContext(), []byte("v1"), core.WriteInfo{Server: "S1", Client: "c1"})
	st, _ := a.Snapshot("k")
	b.SyncKey("k", st)
	if a.KeyHash("k") != b.KeyHash("k") {
		t.Fatal("identical states hash differently")
	}
	_, _ = b.Put("k", m.EmptyContext(), []byte("v2"), core.WriteInfo{Server: "S2", Client: "c2"})
	if a.KeyHash("k") == b.KeyHash("k") {
		t.Fatal("diverged states hash equal")
	}
}

func TestStatsCounters(t *testing.T) {
	m := core.NewDVV()
	s := New(m)
	_, _ = s.Put("k", m.EmptyContext(), []byte("v"), core.WriteInfo{Server: "S1", Client: "c1"})
	_, _ = s.Get("k")
	_, _ = s.Get("missing")
	st, _ := s.Snapshot("k")
	s.SyncKey("k2", st)
	got := s.Stats()
	if got.Puts != 1 || got.Gets != 2 || got.Syncs != 1 || got.Keys != 2 {
		t.Fatalf("Stats = %+v", got)
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	m := core.NewDVV()
	s := New(m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", g%3) // contend on 3 keys
			for i := 0; i < 200; i++ {
				rr, _ := s.Get(key)
				_, err := s.Put(key, rr.Ctx, []byte(fmt.Sprintf("g%d-%d", g, i)), core.WriteInfo{
					Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", g)),
				})
				_ = err
			}
		}(g)
	}
	wg.Wait()
	// No assertion beyond the race detector and internal invariants: each
	// key must still be readable with a well-formed state.
	for _, k := range s.Keys() {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %s vanished", k)
		}
	}
}
