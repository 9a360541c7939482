package node

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/ring"
	"repro/internal/transport"
)

func TestAntiEntropyTreePathLargeStore(t *testing.T) {
	// On a store spread over many leaf buckets, one tree walk must
	// reconcile exactly the divergent keys in both directions.
	nodes, chaos, _ := testCluster(t, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
	})
	a, b := nodes[0], nodes[1]
	m := a.cfg.Mech
	// A shared base large enough that the divergent keys land in
	// different subtrees, so the walk descends more than one path.
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%04d", i)
		_, _ = a.Store().Put(key, m.EmptyContext(), []byte("base"), core.WriteInfo{Server: a.ID(), Client: "seed"})
		st, _ := a.Store().Snapshot(key)
		b.Store().SyncKey(key, st)
	}
	// Diverge a handful of keys on each side, plus one key unique to each.
	chaos.Partition(a.ID(), b.ID())
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("key-%04d", i*7)
		rr, _ := a.Store().Get(key)
		_, _ = a.Store().Put(key, rr.Ctx, []byte(fmt.Sprintf("a%d", i)), core.WriteInfo{Server: a.ID(), Client: "ca"})
		rrB, _ := b.Store().Get(key)
		_, _ = b.Store().Put(key, rrB.Ctx, []byte(fmt.Sprintf("b%d", i)), core.WriteInfo{Server: b.ID(), Client: "cb"})
	}
	_, _ = a.Store().Put("only-a", m.EmptyContext(), []byte("va"), core.WriteInfo{Server: a.ID(), Client: "ca"})
	_, _ = b.Store().Put("only-b", m.EmptyContext(), []byte("vb"), core.WriteInfo{Server: b.ID(), Client: "cb"})
	chaos.HealAll()

	if err := a.AntiEntropyWith(context.Background(), b.ID()); err != nil {
		t.Fatal(err)
	}
	// After the walk initiated by a, a must hold everything: b's unique
	// key reached a through the pull. The push-back must have converged b
	// for every key a knew about, a's unique key included.
	for _, key := range []string{"only-a", "only-b"} {
		if _, ok := a.Store().Snapshot(key); !ok {
			t.Fatalf("a missing %s", key)
		}
		if _, ok := b.Store().Snapshot(key); !ok {
			t.Fatalf("b missing %s", key)
		}
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("key-%04d", i*7)
		ra, _ := a.Store().Get(key)
		rb, _ := b.Store().Get(key)
		if !reflect.DeepEqual(sortedVals(ra), sortedVals(rb)) {
			t.Fatalf("key %s diverged after tree AE: %v vs %v", key, sortedVals(ra), sortedVals(rb))
		}
		if len(ra.Values) != 2 {
			t.Fatalf("key %s should hold both racing siblings: %v", key, sortedVals(ra))
		}
	}
	if st := a.Stats(); st.AETreeRounds < 2 {
		t.Fatalf("AETreeRounds = %d, want a walk below the root", st.AETreeRounds)
	}
}

func TestNodesOverTCPEndToEnd(t *testing.T) {
	// Full stack over real sockets: three nodes, each on its own mux
	// transport, a put through one node readable through another.
	ids := []dot.ID{"t0", "t1", "t2"}
	addrs := map[dot.ID]string{}
	transports := make([]*transport.Mux, len(ids))
	for i, id := range ids {
		tr := transport.NewMux(id, map[dot.ID]string{id: "127.0.0.1:0"})
		if err := tr.Listen(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		transports[i] = tr
		addrs[id] = tr.Addr()
	}
	for _, tr := range transports {
		for id, addr := range addrs {
			tr.SetAddr(id, addr)
		}
	}
	r := ring.New(16)
	for _, id := range ids {
		r.Add(id)
	}
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nd, err := New(Config{
			ID: id, Mech: core.NewDVV(), Transport: transports[i], Ring: r,
			N: 3, R: 2, W: 2, Timeout: 5 * time.Second, ReadRepair: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		nodes[i] = nd
	}
	// Client talks to t0 over its own dial-only transport.
	cli := transport.NewMux("client", addrs)
	t.Cleanup(func() { cli.Close() })
	m := core.NewDVV()
	ctx := context.Background()
	putBody := EncodePutRequest(m, "tcp-key", []byte("tcp-value"), "client", WriteOptions{})
	resp, err := cli.Send(ctx, "client", "t0", transport.Request{Method: MethodPut, Body: putBody})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	// Read through a different node.
	gresp, err := cli.Send(ctx, "client", "t2", transport.Request{Method: MethodGet, Body: EncodeGetRequest(m, "tcp-key", ReadOptions{NotFoundOK: true})})
	if err != nil {
		t.Fatal(err)
	}
	if gresp.Err != "" {
		t.Fatal(gresp.Err)
	}
	rr, err := DecodeReadResult(m, gresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Values) != 1 || string(rr.Values[0]) != "tcp-value" {
		t.Fatalf("get over TCP = %v", sortedVals(rr))
	}
}

func TestChaosConvergence(t *testing.T) {
	// Partitions while clients write; after healing, anti-entropy sweeps
	// converge every replica to the same value set and nothing durably
	// written is lost. (Partition-induced divergence is deterministic;
	// drop-rate chaos is exercised separately in the transport tests.)
	chaos := transport.NewChaos(transport.NewLoopback(), 31)
	t.Cleanup(func() { chaos.Close() })
	r := ring.New(16)
	ids := []dot.ID{"c0", "c1", "c2"}
	for _, id := range ids {
		r.Add(id)
	}
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nd, err := New(Config{
			ID: id, Mech: core.NewDVV(), Transport: chaos, Ring: r,
			N: 3, R: 1, W: 1, Timeout: 200 * time.Millisecond, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		nodes[i] = nd
	}
	ctx := context.Background()
	written := map[string]bool{}
	for i := 0; i < 60; i++ {
		if i == 20 {
			chaos.Partition("c0", "c1")
		}
		if i == 40 {
			chaos.HealAll()
		}
		co := nodes[i%len(nodes)]
		key := fmt.Sprintf("chaos-%d", i%7)
		val := fmt.Sprintf("w%03d", i)
		rr, err := co.CoordinateGet(ctx, key, ReadOptions{NotFoundOK: true})
		var wctx core.Context
		if err != nil {
			wctx = co.cfg.Mech.EmptyContext()
		} else {
			wctx = rr.Ctx
		}
		if _, err := co.CoordinatePut(ctx, key, []byte(val), dot.ID(fmt.Sprintf("cl%d", i%5)), WriteOptions{Context: wctx}); err == nil {
			written[key] = true
		}
	}
	chaos.HealAll()
	for round := 0; round < 3; round++ {
		for _, a := range nodes {
			for _, b := range nodes {
				if a.ID() != b.ID() {
					_ = a.AntiEntropyWith(ctx, b.ID())
				}
			}
		}
	}
	for key := range written {
		var want []string
		for i, n := range nodes {
			rr, ok := n.Store().Get(key)
			if !ok {
				t.Fatalf("node %s missing %s", n.ID(), key)
			}
			got := sortedVals(rr)
			if i == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("key %s diverged: %v vs %v", key, got, want)
			}
		}
		if len(want) == 0 {
			t.Fatalf("key %s lost all values", key)
		}
	}
}
