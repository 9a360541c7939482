package node

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/ring"
	"repro/internal/transport"
)

func TestSloppyQuorumSurvivesDeadReplica(t *testing.T) {
	nodes, chaos, r := testCluster(t, 5, func(c *Config) {
		c.W = 3 // every preference member must ack — or a fallback must
		c.SloppyQuorum = true
		c.HintedHandoff = true
	})
	key := "sloppy-key"
	pref := r.Preference(key, 3)
	co := ownerOf(t, nodes, r, key)

	// Kill one non-coordinator preference member.
	var dead dot.ID
	for _, id := range pref {
		if id != co.ID() {
			dead = id
			break
		}
	}
	chaos.Partition(co.ID(), dead)

	if _, err := co.CoordinatePut(context.Background(), key, []byte("v1"), "c1", WriteOptions{}); err != nil {
		t.Fatalf("sloppy put failed: %v", err)
	}
	st := co.Stats()
	if st.SloppyAcks == 0 {
		t.Fatalf("no sloppy acks: %+v", st)
	}
	if st.ReplFailures == 0 {
		t.Fatalf("replica failure not counted: %+v", st)
	}
	if co.PendingHints() == 0 {
		t.Fatal("no hint stored for the dead home replica")
	}
	// A fallback (non-preference member) must hold the state.
	holders := 0
	for _, n := range nodes {
		if containsID(pref, n.ID()) {
			continue
		}
		if _, ok := n.Store().Snapshot(key); ok {
			holders++
		}
	}
	if holders == 0 {
		t.Fatal("no ring fallback holds the state")
	}

	// Once the home replica is back, hint delivery converges it.
	chaos.HealAll()
	co.DeliverHints(context.Background())
	if co.PendingHints() != 0 {
		t.Fatalf("hints still pending: %d", co.PendingHints())
	}
	var deadNode *Node
	for _, n := range nodes {
		if n.ID() == dead {
			deadNode = n
		}
	}
	if _, ok := deadNode.Store().Snapshot(key); !ok {
		t.Fatal("home replica never received the hinted state")
	}
}

func TestSuspicionMarksAndClears(t *testing.T) {
	nodes, chaos, r := testCluster(t, 3, func(c *Config) {
		c.W = 1
		c.HintedHandoff = true
		c.SuspicionWindow = time.Minute
	})
	key := "suspect-key"
	co := ownerOf(t, nodes, r, key)
	pref := r.Preference(key, 3)
	var peer dot.ID
	for _, id := range pref {
		if id != co.ID() {
			peer = id
			break
		}
	}
	chaos.Partition(co.ID(), peer)
	if _, err := co.CoordinatePut(context.Background(), key, []byte("v1"), "c1", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	// Replication to the dead peer runs async past W=1; wait for the
	// failure to be noted.
	deadline := time.Now().Add(2 * time.Second)
	for !co.Suspected(peer) {
		if time.Now().After(deadline) {
			t.Fatal("failed send never marked the peer suspected")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A successful exchange clears the suspicion. DeliverHints may skip
	// the attempt while the hint's redelivery backoff window is open, so
	// retry until the delivery actually happens.
	chaos.HealAll()
	deadline = time.Now().Add(2 * time.Second)
	for co.Suspected(peer) {
		if time.Now().After(deadline) {
			t.Fatal("successful delivery did not clear suspicion")
		}
		co.DeliverHints(context.Background())
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHandoffToStreamsSelectedKeys(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, func(c *Config) { c.N, c.R, c.W = 2, 1, 1 })
	a, b := nodes[0], nodes[1]
	m := a.cfg.Mech
	// 150 keys forces multiple 64-key batches.
	for i := 0; i < 150; i++ {
		k := fmt.Sprintf("ho-key-%03d", i)
		if _, err := a.Store().Put(k, m.EmptyContext(), []byte("v"), core.WriteInfo{Server: a.ID(), Client: "c"}); err != nil {
			t.Fatal(err)
		}
	}
	sent, err := a.HandoffTo(context.Background(), b.ID(), func(key string) bool {
		return key < "ho-key-100" // 100 of the 150
	})
	if err != nil {
		t.Fatal(err)
	}
	if sent != 100 {
		t.Fatalf("sent = %d, want 100", sent)
	}
	if got := a.Stats().HandoffKeys; got != 100 {
		t.Fatalf("HandoffKeys = %d, want 100", got)
	}
	if got := b.Store().Len(); got != 100 {
		t.Fatalf("receiver holds %d keys, want 100", got)
	}
	// Handoff is idempotent: repeating it changes nothing.
	if _, err := a.HandoffTo(context.Background(), b.ID(), nil); err != nil {
		t.Fatal(err)
	}
	if got := b.Store().Len(); got != 150 {
		t.Fatalf("receiver holds %d keys after full handoff, want 150", got)
	}
}

func TestHintsRerouteToSuccessorAfterLeave(t *testing.T) {
	nodes, chaos, r := testCluster(t, 3, func(c *Config) {
		c.W = 1
		c.HintedHandoff = true
	})
	key := "reroute-key"
	co := ownerOf(t, nodes, r, key)
	// Cut the coordinator off from both peers: W=1 is met locally, both
	// replications fail and leave hints.
	var peers []*Node
	for _, n := range nodes {
		if n.ID() != co.ID() {
			chaos.Partition(co.ID(), n.ID())
			peers = append(peers, n)
		}
	}
	if _, err := co.CoordinatePut(context.Background(), key, []byte("v1"), "c1", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for co.PendingHints() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("hints pending = %d, want 2", co.PendingHints())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// One hinted peer departs for good; heal the network to the other.
	departed := peers[0]
	r.Remove(departed.ID())
	chaos.HealAll()
	chaos.Partition(co.ID(), departed.ID()) // still gone

	co.DeliverHints(context.Background())
	if co.PendingHints() != 0 {
		t.Fatalf("hints still pending after reroute: %d", co.PendingHints())
	}
	// The surviving peer received both its own hint and the departed
	// node's re-routed one.
	if _, ok := peers[1].Store().Snapshot(key); !ok {
		t.Fatal("successor never received the re-routed hint")
	}
}

// gossipNode builds a node with a private ring (the TCP-style deployment
// where each process tracks membership itself).
func gossipNode(t *testing.T, chaos *transport.Chaos, id dot.ID, seedMembers []dot.ID) *Node {
	t.Helper()
	r := ring.New(16)
	r.Add(id)
	for _, m := range seedMembers {
		r.Add(m)
	}
	nd, err := New(Config{
		ID: id, Mech: core.NewDVV(), Transport: chaos, Ring: r,
		N: 3, R: 1, W: 1, Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

func TestJoinLeaveGossip(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLoopback(), 9)
	t.Cleanup(func() { chaos.Close() })
	a := gossipNode(t, chaos, "a", []dot.ID{"b"})
	b := gossipNode(t, chaos, "b", []dot.ID{"a"})

	// Seed data on the existing members.
	m := a.cfg.Mech
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("gossip-key-%02d", i)
		if _, err := a.Store().Put(k, m.EmptyContext(), []byte("v"), core.WriteInfo{Server: a.ID(), Client: "c"}); err != nil {
			t.Fatal(err)
		}
	}

	// A third process joins through a.
	j := gossipNode(t, chaos, "j", nil)
	if err := j.JoinCluster(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	want := []dot.ID{"a", "b", "j"}
	if got := j.cfg.Ring.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("joiner ring = %v, want %v", got, want)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		ga := a.cfg.Ring.Members()
		gb := b.cfg.Ring.Members()
		if reflect.DeepEqual(ga, want) && reflect.DeepEqual(gb, want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("join not gossiped: a=%v b=%v", ga, gb)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The members stream the joiner's keys to it (async handoff).
	wantOwned := 0
	for i := 0; i < 40; i++ {
		if j.cfg.Ring.Owns("j", fmt.Sprintf("gossip-key-%02d", i), 3) {
			wantOwned++
		}
	}
	if wantOwned == 0 {
		t.Fatal("test needs the joiner to own at least one key")
	}
	deadline = time.Now().Add(2 * time.Second)
	for j.Store().Len() < wantOwned {
		if time.Now().After(deadline) {
			t.Fatalf("joiner has %d keys, want %d", j.Store().Len(), wantOwned)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The joiner departs again: keys drain back, members drop it.
	if err := j.Leave(context.Background()); err != nil {
		t.Fatal(err)
	}
	want = []dot.ID{"a", "b"}
	if got := a.cfg.Ring.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a ring after leave = %v, want %v", got, want)
	}
	if got := b.cfg.Ring.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("b ring after leave = %v, want %v", got, want)
	}
	// Every key is still held by a or b.
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("gossip-key-%02d", i)
		if _, okA := a.Store().Snapshot(k); !okA {
			if _, okB := b.Store().Snapshot(k); !okB {
				t.Fatalf("key %s lost after leave", k)
			}
		}
	}
}

func TestStatsRoundTripNewCounters(t *testing.T) {
	nodes, chaos, _ := testCluster(t, 1, func(c *Config) { c.N, c.R, c.W = 1, 1, 1 })
	n := nodes[0]
	n.bump(func(s *Stats) { s.ReplFailures = 7; s.SloppyAcks = 5; s.HandoffKeys = 3 })
	resp, err := chaos.Send(context.Background(), "cli", n.ID(), transport.Request{Method: MethodStats})
	if err != nil || resp.Err != "" {
		t.Fatalf("stats rpc: %v %s", err, resp.Err)
	}
	st, err := DecodeStats(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplFailures != 7 || st.SloppyAcks != 5 || st.HandoffKeys != 3 {
		t.Fatalf("decoded stats = %+v", st)
	}
}

// TestJoinLeaveOverTCP is the dvvstore `-join` flow over real sockets:
// each process has a private ring and learns membership by gossip.
func TestJoinLeaveOverTCP(t *testing.T) {
	mkNode := func(id dot.ID) (*Node, *transport.Mux) {
		tr := transport.NewMux(id, map[dot.ID]string{id: "127.0.0.1:0"})
		if err := tr.Listen(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		r := ring.New(16)
		r.Add(id)
		nd, err := New(Config{
			ID: id, Mech: core.NewDVV(), Transport: tr, Ring: r,
			N: 3, R: 2, W: 2, Timeout: 5 * time.Second,
			ReadRepair: true, HintedHandoff: true, SloppyQuorum: true,
			Addr: tr.Addr(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd, tr
	}
	a, ta := mkNode("t0")
	b, tb := mkNode("t1")
	// Bootstrap a two-member cluster: b joins through a.
	tb.SetAddr("t0", ta.Addr())
	if err := b.JoinCluster(context.Background(), "t0"); err != nil {
		t.Fatal(err)
	}
	two := []dot.ID{"t0", "t1"}
	if got := a.cfg.Ring.Members(); !reflect.DeepEqual(got, two) {
		t.Fatalf("a ring = %v", got)
	}
	if got := b.cfg.Ring.Members(); !reflect.DeepEqual(got, two) {
		t.Fatalf("b ring = %v", got)
	}

	// Seed data through a.
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("tcpjoin-%02d", i)
		if _, err := a.CoordinatePut(ctx, key, []byte("v-"+key), "cli", WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// A third process joins via b's address only.
	c, tc := mkNode("t2")
	tc.SetAddr("??seed", tb.Addr())
	if err := c.JoinCluster(ctx, "??seed"); err != nil {
		t.Fatal(err)
	}
	tc.Deregister("??seed")
	three := []dot.ID{"t0", "t1", "t2"}
	if got := c.cfg.Ring.Members(); !reflect.DeepEqual(got, three) {
		t.Fatalf("joiner ring = %v", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reflect.DeepEqual(a.cfg.Ring.Members(), three) &&
			reflect.DeepEqual(b.cfg.Ring.Members(), three) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip incomplete: a=%v b=%v", a.cfg.Ring.Members(), b.cfg.Ring.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The joiner receives the keys it now owns from both members.
	wantOwned := 0
	for i := 0; i < 30; i++ {
		if c.cfg.Ring.Owns("t2", fmt.Sprintf("tcpjoin-%02d", i), 3) {
			wantOwned++
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for c.Store().Len() < wantOwned {
		if time.Now().After(deadline) {
			t.Fatalf("joiner holds %d keys, want %d", c.Store().Len(), wantOwned)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Graceful leave: membership shrinks, every key stays readable.
	if err := c.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	if got := a.cfg.Ring.Members(); !reflect.DeepEqual(got, two) {
		t.Fatalf("a ring after leave = %v", got)
	}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("tcpjoin-%02d", i)
		rr, err := a.CoordinateGet(ctx, key, ReadOptions{NotFoundOK: true})
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if len(rr.Values) != 1 || string(rr.Values[0]) != "v-"+key {
			t.Fatalf("key %s = %v after leave", key, sortedVals(rr))
		}
	}
}

// TestConcurrentJoinsConvergeViaMembershipGossip forces the divergence a
// one-hop join fan-out cannot fix — two nodes join through different
// members while those members cannot reach each other — and verifies the
// anti-entropy membership exchange (SyncMembership) converges all rings,
// while leave tombstones keep gossip from resurrecting a departed node.
func TestConcurrentJoinsConvergeViaMembershipGossip(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLoopback(), 4)
	t.Cleanup(func() { chaos.Close() })
	a := gossipNode(t, chaos, "a", []dot.ID{"b"})
	b := gossipNode(t, chaos, "b", []dot.ID{"a"})

	// Split the seed members; each admits a different joiner.
	chaos.Partition("a", "b")
	j1 := gossipNode(t, chaos, "j1", nil)
	j2 := gossipNode(t, chaos, "j2", nil)
	if err := j1.JoinCluster(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := j2.JoinCluster(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if containsID(a.cfg.Ring.Members(), "j2") || containsID(b.cfg.Ring.Members(), "j1") {
		t.Fatal("test setup: divergence did not occur")
	}

	chaos.HealAll()
	// A few gossip rounds (any all-pairs schedule converges; the AE loop
	// provides this in production).
	all := []*Node{a, b, j1, j2}
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for _, x := range all {
			for _, y := range all {
				if x != y {
					_ = x.SyncMembership(ctx, y.ID())
				}
			}
		}
	}
	want := []dot.ID{"a", "b", "j1", "j2"}
	for _, n := range all {
		if got := n.cfg.Ring.Members(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %s ring = %v, want %v", n.ID(), got, want)
		}
	}

	// j2 departs; membership gossip must not bring it back.
	if err := j2.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	want = []dot.ID{"a", "b", "j1"}
	for _, n := range []*Node{a, b, j1} {
		if got := n.cfg.Ring.Members(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %s ring after leave = %v", n.ID(), got)
		}
	}
	for _, x := range []*Node{a, b, j1} {
		for _, y := range []*Node{a, b, j1} {
			if x != y {
				_ = x.SyncMembership(ctx, y.ID())
			}
		}
	}
	for _, n := range []*Node{a, b, j1} {
		if containsID(n.cfg.Ring.Members(), "j2") {
			t.Fatalf("gossip resurrected departed node at %s: %v", n.ID(), n.cfg.Ring.Members())
		}
	}
}

// TestForwardedJoinCannotResurrectDepartedNode pins the tombstone rule: a
// passive (forwarded) join announcement arriving after a member.leave
// must be ignored, while a direct re-join clears the tombstone.
func TestForwardedJoinCannotResurrectDepartedNode(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLoopback(), 5)
	t.Cleanup(func() { chaos.Close() })
	a := gossipNode(t, chaos, "a", []dot.ID{"b"})
	b := gossipNode(t, chaos, "b", []dot.ID{"a"})
	_ = b

	j := gossipNode(t, chaos, "j", nil)
	if err := j.JoinCluster(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := j.Leave(context.Background()); err != nil {
		t.Fatal(err)
	}
	if containsID(a.cfg.Ring.Members(), "j") {
		t.Fatal("leave not processed")
	}

	// A stale forwarded announcement (e.g. a delayed fan-out copy or a
	// SyncMembership ping from the leave window) arrives late.
	w := codec.NewWriter(64)
	w.String("j")
	w.String("")
	w.Bool(true) // forwarded: passive
	if resp := a.Handle(context.Background(), "b", transport.Request{Method: MethodJoin, Body: w.Bytes()}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if containsID(a.cfg.Ring.Members(), "j") {
		t.Fatal("forwarded join resurrected a departed node")
	}

	// An explicit re-join (forwarded=false) is a real membership event.
	w = codec.NewWriter(64)
	w.String("j")
	w.String("")
	w.Bool(false)
	if resp := a.Handle(context.Background(), "j", transport.Request{Method: MethodJoin, Body: w.Bytes()}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if !containsID(a.cfg.Ring.Members(), "j") {
		t.Fatal("direct re-join did not clear the tombstone")
	}
}
