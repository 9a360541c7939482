package node

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/ring"
	"repro/internal/transport"
)

// raceMech wraps a mechanism to reproduce, deterministically, a client
// write racing the coordinator's read. When armed, the first EncodeState
// call runs a local blind write to completion before it encodes. That
// call is HashState's encode of the snapshot at the top of CoordinateGet,
// the hash peers are judged against, so from then on the live store is
// ahead of the snapshot, as when a write lands between the snapshot and
// the reply loop.
type raceMech struct {
	core.Mechanism
	armed atomic.Bool
	put   func()
}

func (rm *raceMech) EncodeState(w *codec.Writer, st core.State) {
	if rm.armed.CompareAndSwap(true, false) {
		rm.put()
	}
	rm.Mechanism.EncodeState(w, st)
}

// TestReadRepairIgnoresOwnConcurrentWrites is the regression test for the
// CoordinateGet TOCTOU: divergence used to be judged against the live
// store's hash, so a local put landing between the coordinator's snapshot
// and the divergence check made perfectly in-sync peers look divergent
// and triggered spurious read repair. Divergence is now judged against
// the snapshot itself, so with all replicas identical the repair count
// must stay zero no matter what the coordinator writes concurrently.
func TestReadRepairIgnoresOwnConcurrentWrites(t *testing.T) {
	lb := transport.NewLoopback()
	t.Cleanup(func() { lb.Close() })
	r := ring.New(16)
	ids := []dot.ID{"n00", "n01", "n02"}
	for _, id := range ids {
		r.Add(id)
	}
	rm := &raceMech{Mechanism: core.NewDVV()}
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		var m core.Mechanism = core.NewDVV()
		if i == 0 {
			m = rm // only the coordinator races against itself
		}
		nd, err := New(Config{
			ID: id, Mech: m, Transport: lb, Ring: r,
			// W = N: the seeding put returns only when every replica holds it.
			N: 3, R: 2, W: 3,
			Timeout: time.Second, ReadRepair: true, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		nodes[i] = nd
	}
	co := nodes[0] // owns every key: N = cluster size
	key := "hot-key"
	m := core.NewDVV()
	if _, err := co.CoordinatePut(context.Background(), key, []byte("v1"), "c1", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	// All three replicas now hold identical state for the key.
	want := co.Store().KeyHash(key)
	for _, n := range nodes {
		if n.Store().KeyHash(key) != want {
			t.Fatalf("replica %s not in sync before the read", n.ID())
		}
	}

	rm.put = func() {
		if _, err := co.Store().Put(key, m.EmptyContext(), []byte("racer"),
			core.WriteInfo{Server: co.ID(), Client: "racer"}); err != nil {
			t.Error(err)
		}
	}
	rm.armed.Store(true)
	rr, err := co.CoordinateGet(context.Background(), key, ReadOptions{NotFoundOK: true})
	if err != nil {
		t.Fatal(err)
	}
	if rm.armed.Load() {
		t.Fatal("race hook never fired; test is not exercising the window")
	}
	// The read is answered from the merged snapshot view: exactly v1.
	if got := sortedVals(rr); !reflect.DeepEqual(got, []string{"v1"}) {
		t.Fatalf("read = %v, want [v1]", got)
	}
	// Give any (wrongly triggered) async repair time to land, then check
	// none happened: the peers matched the snapshot, so the coordinator's
	// own concurrent write must not be mistaken for peer divergence.
	time.Sleep(50 * time.Millisecond)
	if repairs := co.Stats().ReadRepairs; repairs != 0 {
		t.Fatalf("ReadRepairs = %d, want 0: coordinator's own write misread as peer divergence", repairs)
	}
	// The racing write itself was not lost: it survives as a sibling.
	final, _ := co.Store().Get(key)
	if got := sortedVals(final); !reflect.DeepEqual(got, []string{"racer", "v1"}) {
		t.Fatalf("post-read local state = %v, want [racer v1]", got)
	}
}
