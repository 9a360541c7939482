package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

func TestReadYourWritesAcrossCoordinators(t *testing.T) {
	// A client whose requests land on different nodes (RouteRandom) must
	// still see its own writes dominate: the session context carries
	// across coordinators even before replication converges.
	for _, mech := range []core.Mechanism{core.NewDVV(), core.NewDVVSet(), core.NewClientVV(), core.NewVVE()} {
		t.Run(mech.Name(), func(t *testing.T) {
			c := newCluster(t, Config{Mech: mech, Nodes: 5, N: 3, R: 1, W: 1, Seed: 11})
			cl := c.NewClient("roamer", RouteRandom)
			ctx := context.Background()
			for i := 0; i < 10; i++ {
				if err := cl.Put(ctx, "roam-key", []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			vals, err := cl.Get(ctx, "roam-key")
			if err != nil {
				t.Fatal(err)
			}
			// The client's 10 sequential writes are totally ordered by its
			// session: exactly the last one must survive.
			if got := sortedStrs(vals); !reflect.DeepEqual(got, []string{"v9"}) {
				t.Fatalf("siblings = %v, want only v9", got)
			}
		})
	}
}

func TestSessionsAreIndependentPerKey(t *testing.T) {
	c := newCluster(t, Config{Mech: core.NewDVV(), Nodes: 3, Seed: 12})
	cl := c.NewClient("multi", RouteCoordinator)
	ctx := context.Background()
	if err := cl.Put(ctx, "k1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ctx, "k2", []byte("b")); err != nil {
		t.Fatal(err)
	}
	// Overwriting k1 must not need (or disturb) k2's context.
	if err := cl.Put(ctx, "k1", []byte("a2")); err != nil {
		t.Fatal(err)
	}
	v1, _ := cl.Get(ctx, "k1")
	v2, _ := cl.Get(ctx, "k2")
	if !reflect.DeepEqual(sortedStrs(v1), []string{"a2"}) || !reflect.DeepEqual(sortedStrs(v2), []string{"b"}) {
		t.Fatalf("k1=%v k2=%v", sortedStrs(v1), sortedStrs(v2))
	}
}

func TestPartitionedWritersConvergeAfterHeal(t *testing.T) {
	// Two clients write the same key on opposite sides of a partition
	// (W=1 so both succeed); after healing and read repair both sides see
	// both siblings, and a merge write converges.
	chaos := transport.NewChaos(transport.NewLoopback(), 13)
	t.Cleanup(func() { chaos.Close() })
	c := newCluster(t, Config{
		Mech: core.NewDVV(), Nodes: 2, N: 2, R: 1, W: 1,
		Transport: chaos, ReadRepair: true, Seed: 13,
	})
	ctx := context.Background()
	a := c.NewClient("side-a", RouteCoordinator)
	b := c.NewClient("side-b", RouteCoordinator)
	key := "split-key"
	// Seed and wait for replication to the second node.
	if err := a.Put(ctx, key, []byte("base")); err != nil {
		t.Fatal(err)
	}
	_, _ = b.Get(ctx, key)
	other := c.Nodes[1]
	deadlineRepl := time.Now().Add(2 * time.Second)
	var staleCtx core.Context
	for {
		if st, ok := other.Store().Snapshot(key); ok {
			staleCtx = c.Mechanism().Read(st).Ctx
			break
		}
		if time.Now().After(deadlineRepl) {
			t.Fatal("base never replicated to second node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Partition the two nodes; each side takes one write (W=1 keeps the
	// writes local to each side).
	chaos.Partition("n00", "n01")
	if err := a.Put(ctx, key, []byte("left")); err != nil {
		t.Fatal(err)
	}
	// b's write lands on the other side of the cut: apply it directly to
	// that node's store with the context b read before the partition.
	if _, err := other.Store().Put(key, staleCtx, []byte("right"),
		core.WriteInfo{Server: other.ID(), Client: "side-b"}); err != nil {
		t.Fatal(err)
	}
	chaos.HealAll()
	// Anti-entropy style reconciliation via a read-repairing get.
	deadline := time.Now().Add(2 * time.Second)
	for {
		vals, err := a.Get(ctx, key)
		if err == nil && len(vals) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("siblings never surfaced: %v (err=%v)", vals, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Resolve.
	if err := a.Put(ctx, key, []byte("merged")); err != nil {
		t.Fatal(err)
	}
	vals, _ := a.Get(ctx, key)
	if got := sortedStrs(vals); !reflect.DeepEqual(got, []string{"merged"}) {
		t.Fatalf("after merge = %v", got)
	}
}
