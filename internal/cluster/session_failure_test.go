package cluster

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/transport"
)

// prefNodes resolves a key's full preference list to node handles, in
// preference order, so tests can address "the coordinator", "the replica
// that has the write" and "the stale replica" by role.
func prefNodes(t *testing.T, c *Cluster, key string, n int) []*node.Node {
	t.Helper()
	pref := c.Ring.Preference(key, n)
	if len(pref) != n {
		t.Fatalf("preference list for %q has %d members, want %d", key, len(pref), n)
	}
	out := make([]*node.Node, n)
	for i, id := range pref {
		out[i] = c.NodeByID(id)
		if out[i] == nil {
			t.Fatalf("node %s not running", id)
		}
	}
	return out
}

// TestReadYourWritesAcrossCoordinatorFailover: a session write lands on
// the coordinator and one peer (W=2); the third replica never hears of it
// (chaos severs that link). The coordinator then fails. A session read at
// level one against the *stale* replica must not answer from its own
// (empty) store: the floor forces it to pull the write from the surviving
// peer. The same read without a floor happily returns the stale view —
// the contrast that shows the guarantee comes from the session, not luck.
func TestReadYourWritesAcrossCoordinatorFailover(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLoopback(), 21)
	t.Cleanup(func() { chaos.Close() })
	c := newCluster(t, Config{
		Mech: core.NewDVV(), Nodes: 3, N: 3, R: 2, W: 2,
		Transport: chaos, Seed: 21, Timeout: 2 * time.Second,
	})
	key := "ryw-failover-key"
	nds := prefNodes(t, c, key, 3)
	a, b, stale := nds[0], nds[1], nds[2]
	ctx := context.Background()

	// Replication to the third replica is cut *before* the write, so its
	// store never sees it; W=2 is satisfied by a (local) + b.
	chaos.Partition(a.ID(), stale.ID())
	rr, err := a.CoordinatePut(ctx, key, []byte("mine"), "c1", node.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	floor := rr.Ctx

	// The coordinator fails: sever it from everyone.
	chaos.Partition(a.ID(), b.ID())

	// Without a floor, a level-one read at the stale replica serves its
	// local (empty) snapshot — the stale answer sessions exist to forbid.
	got, err := stale.CoordinateGet(ctx, key, node.ReadOptions{Level: node.LevelOne, NotFoundOK: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != 0 {
		t.Fatalf("stale replica unexpectedly has %d values before the session read", len(got.Values))
	}

	// With the floor, the same replica must escalate to its peers and
	// return the session's own write, coordinator down and all.
	got, err = stale.CoordinateGet(ctx, key, node.ReadOptions{
		Level: node.LevelOne, NotFoundOK: true, Session: floor,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"mine"}; !reflect.DeepEqual(sortedStrs(got.Values), want) {
		t.Fatalf("session read = %v, want %v", sortedStrs(got.Values), want)
	}
	st := stale.Stats()
	if st.SessionWaits == 0 {
		t.Fatal("floor was not satisfied locally yet SessionWaits == 0")
	}
}

// TestMonotonicReadsThroughHealedPartition: a session that has seen v2
// must never be served v1 (or nothing) by a replica the partition left
// behind. While the partition holds, the floored read fails rather than
// answering stale; after healing, the same read succeeds by re-reading
// the caught-up peers.
func TestMonotonicReadsThroughHealedPartition(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLoopback(), 22)
	t.Cleanup(func() { chaos.Close() })
	c := newCluster(t, Config{
		Mech: core.NewDVVSet(), Nodes: 3, N: 3, R: 2, W: 2,
		Transport: chaos, ReadRepair: true, Seed: 22, Timeout: 2 * time.Second,
	})
	key := "monotonic-key"
	nds := prefNodes(t, c, key, 3)
	a, b, lagging := nds[0], nds[1], nds[2]
	ctx := context.Background()

	// v1 reaches everyone.
	rr, err := a.CoordinatePut(ctx, key, []byte("v1"), "c1", node.WriteOptions{Level: node.LevelAll})
	if err != nil {
		t.Fatal(err)
	}

	// The lagging replica drops off; v2 lands on the other two (W=2).
	chaos.Partition(a.ID(), lagging.ID())
	chaos.Partition(b.ID(), lagging.ID())
	rr, err = a.CoordinatePut(ctx, key, []byte("v2"), "c1", node.WriteOptions{Context: rr.Ctx})
	if err != nil {
		t.Fatal(err)
	}
	floor := rr.Ctx

	// During the partition the floored read must fail — returning v1 here
	// would violate monotonic reads for a session that has seen v2.
	short, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
	_, err = lagging.CoordinateGet(short, key, node.ReadOptions{Level: node.LevelOne, Session: floor})
	cancel()
	if err == nil {
		t.Fatal("floored read during partition returned instead of failing")
	}
	if !strings.Contains(err.Error(), "session floor") {
		t.Fatalf("floored read failed with %v, want a session-floor error", err)
	}

	// Heal; the identical read now pulls v2 from the caught-up peers.
	chaos.HealAll()
	got, err := lagging.CoordinateGet(ctx, key, node.ReadOptions{Level: node.LevelOne, Session: floor})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"v2"}; !reflect.DeepEqual(sortedStrs(got.Values), want) {
		t.Fatalf("post-heal session read = %v, want %v", sortedStrs(got.Values), want)
	}
	if st := lagging.Stats(); st.SessionRetries == 0 {
		t.Fatal("partition-spanning floor reached with zero SessionRetries")
	}
}

// TestSessionClientEndToEnd drives the Session facade through a roaming
// client: every request routes to a random *owner* (split-brain shape),
// yet read-your-writes holds because the session floor travels with the
// request.
func TestSessionClientEndToEnd(t *testing.T) {
	c := newCluster(t, Config{
		Mech: core.NewDVV(), Nodes: 5, N: 3, R: 1, W: 1,
		Seed: 23, Timeout: 2 * time.Second,
	})
	s := c.NewSession("roamer", RouteOwner)
	ctx := context.Background()
	key := "session-e2e"
	var tok Token
	for i := 0; i < 8; i++ {
		var err error
		tok, err = s.Put(ctx, key, []byte("v"+string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(tok) == 0 {
		t.Fatal("put returned an empty token")
	}
	vals, _, err := s.GetWith(ctx, key, node.ReadOptions{Level: node.LevelOne, NotFoundOK: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"v7"}; !reflect.DeepEqual(sortedStrs(vals), want) {
		t.Fatalf("session read = %v, want %v", sortedStrs(vals), want)
	}
}
