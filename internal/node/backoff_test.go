package node

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
)

// injectHint plants one pending hint on n addressed to peer, as if a
// sloppy-quorum write had stored it while peer was unreachable.
func injectHint(t *testing.T, n *Node, peer dot.ID, key, value string) {
	t.Helper()
	m := n.cfg.Mech
	st, err := m.Put(m.NewState(), m.EmptyContext(), []byte(value), core.WriteInfo{Server: n.cfg.ID, Client: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	if n.hints[peer] == nil {
		n.hints[peer] = map[string]core.State{}
	}
	n.hints[peer][key] = st
	n.mu.Unlock()
}

// TestHintRedeliveryBackoffUnderPartition is the regression test for the
// pre-PR-7 busy-spin: with a partition held, every DeliverHints round
// used to hammer the dead peer. Now a failure streak suppresses rounds
// with capped exponential backoff, so a burst of redelivery calls during
// the outage results in only a handful of actual attempts — and the
// backlog still drains promptly after heal.
func TestHintRedeliveryBackoffUnderPartition(t *testing.T) {
	nodes, chaos, _ := testCluster(t, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
		c.HintedHandoff = true
	})
	n1, n2 := nodes[0], nodes[1]
	chaos.Partition(n1.ID(), n2.ID())
	injectHint(t, n1, n2.ID(), "k", "v1")

	const rounds = 50
	for i := 0; i < rounds; i++ {
		n1.DeliverHints(context.Background())
	}
	st := n1.Stats()
	if st.HintAttempts+st.HintSkips != rounds {
		t.Fatalf("attempts %d + skips %d != %d rounds", st.HintAttempts, st.HintSkips, rounds)
	}
	// 50 back-to-back rounds complete in well under the first few backoff
	// windows (10–40ms): without suppression there would be 50 attempts.
	if st.HintAttempts > 10 {
		t.Fatalf("HintAttempts = %d during held partition, want ≤ 10 (busy-spin regression)", st.HintAttempts)
	}
	if st.HintSkips == 0 {
		t.Fatal("HintSkips = 0: backoff never engaged")
	}
	if n1.PendingHints() != 1 {
		t.Fatalf("PendingHints = %d, want 1 (still partitioned)", n1.PendingHints())
	}

	// Heal: the backlog must drain despite the accrued streak — the
	// suppression window is capped, and WaitHintsDrained outwaits it.
	chaos.HealAll()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n1.WaitHintsDrained(ctx); err != nil {
		t.Fatal(err)
	}
	if got := n1.Stats().HintsDelivered; got != 1 {
		t.Fatalf("HintsDelivered = %d, want 1", got)
	}
	// Success clears the streak: the next failure starts a fresh window.
	n1.mu.Lock()
	_, lingering := n1.hintRetry[n2.ID()]
	n1.mu.Unlock()
	if lingering {
		t.Fatal("retry state leaked after successful delivery")
	}
}

// TestBackoffForShape pins the backoff curve: exponential growth, hard
// cap, and jitter within [d/2, d].
func TestBackoffForShape(t *testing.T) {
	nodes, _, _ := testCluster(t, 1, nil)
	n := nodes[0]
	base, max := 10*time.Millisecond, 500*time.Millisecond
	for k := 1; k <= 12; k++ {
		d := base << min(k-1, 20)
		if d <= 0 || d > max {
			d = max
		}
		for i := 0; i < 20; i++ {
			n.mu.Lock()
			got := n.backoffFor(k, base, max)
			n.mu.Unlock()
			if got < d/2 || got > d {
				t.Fatalf("backoffFor(%d) = %v, want within [%v, %v]", k, got, d/2, d)
			}
		}
	}
}
