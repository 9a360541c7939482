package node

import (
	"context"
	"reflect"
	"testing"
	"time"
)

func TestHintedHandoffStoresAndDelivers(t *testing.T) {
	nodes, chaos, r := testCluster(t, 3, func(c *Config) {
		c.W = 1 // the put succeeds locally even with peers cut off
		c.HintedHandoff = true
	})
	key := "hinted-key"
	co := ownerOf(t, nodes, r, key)
	// Cut the coordinator off from both peers, then write.
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
	// Replication goroutines run async; wait for both hints.
	deadline := time.Now().Add(2 * time.Second)
	for co.PendingHints() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("hints not stored: %d pending", co.PendingHints())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if co.Stats().HintsStored < 2 {
		t.Fatalf("HintsStored = %d", co.Stats().HintsStored)
	}
	// Peers must not have the key yet.
	for _, p := range peers {
		if _, ok := p.Store().Snapshot(key); ok {
			t.Fatalf("peer %s received state through a partition", p.ID())
		}
	}
	// Heal and redeliver.
	chaos.HealAll()
	co.DeliverHints(context.Background())
	if got := co.PendingHints(); got != 0 {
		t.Fatalf("PendingHints = %d after delivery", got)
	}
	for _, p := range peers {
		rr, ok := p.Store().Get(key)
		if !ok || !reflect.DeepEqual(sortedVals(rr), []string{"v1"}) {
			t.Fatalf("peer %s state = %v ok=%v", p.ID(), sortedVals(rr), ok)
		}
	}
	if co.Stats().HintsDelivered < 2 {
		t.Fatalf("HintsDelivered = %d", co.Stats().HintsDelivered)
	}
}

func TestHintsMergeForSameKey(t *testing.T) {
	nodes, chaos, r := testCluster(t, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
		c.HintedHandoff = true
	})
	key := "merge-hints"
	co := ownerOf(t, nodes, r, key)
	var peer *Node
	for _, n := range nodes {
		if n.ID() != co.ID() {
			peer = n
		}
	}
	chaos.Partition(co.ID(), peer.ID())
	// Two racing writes while the peer is down: the hints must merge
	// into one per (peer, key) carrying both siblings.
	if _, err := co.CoordinatePut(context.Background(), key, []byte("v1"), "c1", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.CoordinatePut(context.Background(), key, []byte("v2"), "c2", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for co.Stats().HintsStored < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("hints not stored: %+v", co.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := co.PendingHints(); got != 1 {
		t.Fatalf("PendingHints = %d, want 1 merged entry", got)
	}
	chaos.HealAll()
	co.DeliverHints(context.Background())
	rr, ok := peer.Store().Get(key)
	if !ok || !reflect.DeepEqual(sortedVals(rr), []string{"v1", "v2"}) {
		t.Fatalf("peer state = %v ok=%v, want both siblings", sortedVals(rr), ok)
	}
}

func TestDeliverHintsKeepsUndeliverable(t *testing.T) {
	nodes, chaos, r := testCluster(t, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
		c.HintedHandoff = true
	})
	key := "stuck-hint"
	co := ownerOf(t, nodes, r, key)
	var peer *Node
	for _, n := range nodes {
		if n.ID() != co.ID() {
			peer = n
		}
	}
	chaos.Partition(co.ID(), peer.ID())
	if _, err := co.CoordinatePut(context.Background(), key, []byte("v1"), "c1", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for co.PendingHints() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("hint not stored")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Still partitioned: delivery must fail and keep the hint.
	co.DeliverHints(context.Background())
	if got := co.PendingHints(); got != 1 {
		t.Fatalf("PendingHints = %d, want hint retained", got)
	}
	if co.Stats().HintsDelivered != 0 {
		t.Fatal("delivery counted despite partition")
	}
}

func TestHintDeliveryViaAntiEntropyLoop(t *testing.T) {
	nodes, chaos, r := testCluster(t, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
		c.HintedHandoff = true
		c.AntiEntropyInterval = 10 * time.Millisecond
	})
	key := "loop-hint"
	co := ownerOf(t, nodes, r, key)
	var peer *Node
	for _, n := range nodes {
		if n.ID() != co.ID() {
			peer = n
		}
	}
	chaos.Partition(co.ID(), peer.ID())
	if _, err := co.CoordinatePut(context.Background(), key, []byte("v1"), "c1", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for co.PendingHints() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("hint not stored")
		}
		time.Sleep(5 * time.Millisecond)
	}
	chaos.HealAll()
	// The background loop must deliver without an explicit call.
	deadline = time.Now().Add(2 * time.Second)
	for co.PendingHints() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("anti-entropy loop never delivered the hint")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
