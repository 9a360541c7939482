package node

// Tests for the ae.tree exchange: frame decoding under hostile input,
// convergence through a faulty network, and the idle-tick I/O contract
// on the tiered engine.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/antientropy"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

func encodeAETreeBytes(items []aeTreeItem) []byte {
	w := codec.NewWriter(0)
	encodeAETreeRequest(w, items)
	return w.Bytes()
}

// FuzzDecodeAETree checks that decodeAETreeRequest never panics, that
// accepted frames re-encode byte-identically (the format is canonical),
// and that every accepted item lies inside the fixed tree geometry.
func FuzzDecodeAETree(f *testing.F) {
	root := antientropy.TreeRootLevel()
	f.Add(encodeAETreeBytes([]aeTreeItem{{level: root, index: 0, hash: 42}}))
	f.Add(encodeAETreeBytes([]aeTreeItem{
		{level: 2, index: 1, hash: 7}, {level: 2, index: 5, hash: 8}, {level: 1, index: 0, hash: 9},
	}))
	f.Add(encodeAETreeBytes([]aeTreeItem{{level: 0, index: antientropy.TreeLeaves - 1, hash: 1}}))
	f.Add([]byte{0})                   // zero count: must error
	f.Add([]byte{2, 1, 0, 1, 2, 0, 1}) // level increases: must error
	f.Add([]byte{1, 9, 0, 0})          // level beyond the root: must error
	f.Add([]byte{2, 1, 5, 1, 1, 5, 1}) // duplicate index: must error
	f.Add([]byte{0xff, 0xff, 0xff})    // truncated varint
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := decodeAETreeRequest(data)
		if err != nil {
			return
		}
		if len(items) == 0 || len(items) > aeTreeBatch {
			t.Fatalf("accepted %d items from %x", len(items), data)
		}
		for _, it := range items {
			if it.level < 0 || it.level > antientropy.TreeRootLevel() ||
				it.index < 0 || it.index >= antientropy.TreeLevelSize(it.level) {
				t.Fatalf("accepted out-of-geometry item %+v from %x", it, data)
			}
		}
		out := encodeAETreeBytes(items)
		if !bytes.Equal(out, data) {
			t.Fatalf("re-encode mismatch: %x -> %+v -> %x", data, items, out)
		}
	})
}

// TestAETreeRejectsGarbage: the responder refuses malformed frames
// instead of answering them.
func TestAETreeRejectsGarbage(t *testing.T) {
	nodes, _, _ := testCluster(t, 1, func(c *Config) { c.N, c.R, c.W = 1, 1, 1 })
	n := nodes[0]
	for _, body := range [][]byte{
		nil,
		{0},
		{1, 9, 0, 0},
		{0xff, 0xff, 0xff},
		{2, 1, 0, 1, 2, 0, 1},
	} {
		resp := n.Handle(context.Background(), "x", transport.Request{Method: MethodAETree, Body: body})
		if resp.Err == "" {
			t.Fatalf("garbage ae.tree frame %x accepted", body)
		}
	}
}

// TestChaosTreeAntiEntropyConverges: the tree walk must converge two
// diverged replicas through a network that drops and reorders messages.
// Per-RPC failures surface as failed rounds or counted repair failures;
// repeated ticks — exactly what the anti-entropy loop provides — must
// still reach convergence, and ChaosStats proves the faults actually
// fired.
func TestChaosTreeAntiEntropyConverges(t *testing.T) {
	ch := transport.NewChaos(transport.NewLoopback(), 7)
	t.Cleanup(func() { ch.Close() })
	ch.SetDefault(transport.LinkFaults{DropRate: 0.15, Reorder: 2 * time.Millisecond})
	nodes, _, _ := clusterOnTransport(t, ch, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
		c.Timeout = 500 * time.Millisecond
	})
	a, b := nodes[0], nodes[1]
	m := a.cfg.Mech

	// Diverge the stores directly: each side holds keys the other lacks.
	const keys = 120
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("chaos-tree-%03d", i)
		owner := a
		if i%2 == 1 {
			owner = b
		}
		if _, err := owner.Store().Put(key, m.EmptyContext(), []byte(fmt.Sprintf("v%03d", i)),
			core.WriteInfo{Server: owner.ID(), Client: "c"}); err != nil {
			t.Fatal(err)
		}
	}

	converged := func() bool {
		if a.Store().Len() != keys || b.Store().Len() != keys {
			return false
		}
		for _, k := range a.Store().Keys() {
			if a.Store().KeyHash(k) != b.Store().KeyHash(k) {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(30 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge under chaos")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = a.AntiEntropyWith(ctx, b.ID())
		_ = b.AntiEntropyWith(ctx, a.ID())
		cancel()
	}
	st := ch.Stats()
	if st.Dropped == 0 {
		t.Fatalf("chaos injected no drops: %+v (test proved nothing)", st)
	}
	if s := a.Stats(); s.AETreeRounds == 0 || s.AETreeNodes == 0 {
		t.Fatalf("tree walk never ran: %+v", s)
	}
}

// TestTieredTreeIdleTickZeroSegmentIO: a converged anti-entropy tick on
// tiered-engine nodes must do zero segment reads — the whole tree
// surface (root compare included) is served from resident state even
// when nearly every value is cold.
func TestTieredTreeIdleTickZeroSegmentIO(t *testing.T) {
	lb := transport.NewLoopback()
	t.Cleanup(func() { lb.Close() })
	nodes, _, _ := clusterOnTransport(t, lb, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
		c.DataDir = t.TempDir()
		c.Engine = storage.EngineTiered
		c.MemBudget = 16 << 10 // force most states cold
	})
	a, b := nodes[0], nodes[1]
	m := a.cfg.Mech
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("cold-%04d", i)
		if _, err := a.Store().Put(key, m.EmptyContext(), []byte(fmt.Sprintf("val-%04d", i)),
			core.WriteInfo{Server: a.ID(), Client: "c"}); err != nil {
			t.Fatal(err)
		}
		st, _ := a.Store().Snapshot(key)
		if err := b.Store().SyncKey(key, st); err != nil {
			t.Fatal(err)
		}
	}
	if a.Store().Stats().Spills == 0 || b.Store().Stats().Spills == 0 {
		t.Fatal("budget did not force cold states; test proves nothing")
	}
	faultsA, faultsB := a.Stats().Faults, b.Stats().Faults
	const ticks = 5
	ctx := context.Background()
	for i := 0; i < ticks; i++ {
		if err := a.AntiEntropyWith(ctx, b.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if fa := a.Stats().Faults; fa != faultsA {
		t.Fatalf("initiator faulted %d segments on converged ticks", fa-faultsA)
	}
	if fb := b.Stats().Faults; fb != faultsB {
		t.Fatalf("responder faulted %d segments on converged ticks", fb-faultsB)
	}
	// Converged ticks are exactly one round comparing one node each.
	if s := a.Stats(); s.AETreeRounds != ticks || s.AETreeNodes != ticks {
		t.Fatalf("converged ticks cost rounds=%d nodes=%d, want %d each", s.AETreeRounds, s.AETreeNodes, ticks)
	}
}
