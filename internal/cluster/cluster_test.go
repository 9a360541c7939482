package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

func sortedStrs(vals [][]byte) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v)
	}
	sort.Strings(out)
	return out
}

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil mechanism accepted")
	}
	if _, err := New(Config{Mech: core.NewDVV()}); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestBasicPutGetAcrossMechanisms(t *testing.T) {
	for name, m := range core.Registry() {
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, Config{Mech: m, Nodes: 5, N: 3, R: 2, W: 2, Seed: 1})
			cl := c.NewClient("", RouteCoordinator)
			ctx := context.Background()
			if err := cl.Put(ctx, "greeting", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			vals, err := cl.Get(ctx, "greeting")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sortedStrs(vals), []string{"hello"}) {
				t.Fatalf("get = %v", sortedStrs(vals))
			}
			// Session carries: a second put overwrites rather than forks.
			if err := cl.Put(ctx, "greeting", []byte("hi")); err != nil {
				t.Fatal(err)
			}
			vals, _ = cl.Get(ctx, "greeting")
			if !reflect.DeepEqual(sortedStrs(vals), []string{"hi"}) {
				t.Fatalf("after overwrite = %v", sortedStrs(vals))
			}
		})
	}
}

func TestConcurrentClientsMakeSiblings(t *testing.T) {
	c := newCluster(t, Config{Mech: core.NewDVV(), Nodes: 3, N: 3, R: 2, W: 2, Seed: 2})
	ctx := context.Background()
	a := c.NewClient("alice", RouteCoordinator)
	b := c.NewClient("bob", RouteCoordinator)
	// Both read the empty key, then write without re-reading: a race.
	_, _ = a.Get(ctx, "cart")
	_, _ = b.Get(ctx, "cart")
	if err := a.Put(ctx, "cart", []byte("apples")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(ctx, "cart", []byte("bananas")); err != nil {
		t.Fatal(err)
	}
	vals, err := a.Get(ctx, "cart")
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedStrs(vals); !reflect.DeepEqual(got, []string{"apples", "bananas"}) {
		t.Fatalf("siblings = %v", got)
	}
	// Alice resolves the conflict: her fresh session covers both.
	if err := a.Put(ctx, "cart", []byte("apples+bananas")); err != nil {
		t.Fatal(err)
	}
	vals, _ = b.Get(ctx, "cart")
	if got := sortedStrs(vals); !reflect.DeepEqual(got, []string{"apples+bananas"}) {
		t.Fatalf("after resolve = %v", got)
	}
}

func TestUpdateReadModifyWrite(t *testing.T) {
	c := newCluster(t, Config{Mech: core.NewDVV(), Nodes: 3, Seed: 3})
	cl := c.NewClient("", RouteCoordinator)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		err := cl.Update(ctx, "counter", func(siblings [][]byte) []byte {
			return []byte(fmt.Sprintf("v%d", len(siblings)))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	vals, _ := cl.Get(ctx, "counter")
	if len(vals) != 1 {
		t.Fatalf("RMW should converge to one value, got %v", sortedStrs(vals))
	}
}

func TestRouteRandomForwards(t *testing.T) {
	c := newCluster(t, Config{Mech: core.NewDVV(), Nodes: 6, N: 2, R: 1, W: 1, Seed: 4})
	cl := c.NewClient("", RouteRandom)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := cl.Put(ctx, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	forwards := uint64(0)
	for _, n := range c.Nodes {
		forwards += n.Stats().Forwards
	}
	if forwards == 0 {
		t.Fatal("random routing never exercised forwarding")
	}
}

func TestForgetSessionCausesSiblings(t *testing.T) {
	c := newCluster(t, Config{Mech: core.NewDVV(), Nodes: 3, Seed: 5})
	cl := c.NewClient("amnesiac", RouteCoordinator)
	ctx := context.Background()
	if err := cl.Put(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	cl.ForgetSession("k")
	if err := cl.Put(ctx, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	vals, _ := cl.Get(ctx, "k")
	if got := sortedStrs(vals); !reflect.DeepEqual(got, []string{"v1", "v2"}) {
		t.Fatalf("blind write should fork: %v", got)
	}
}

func TestMetadataAccountingHelpers(t *testing.T) {
	c := newCluster(t, Config{Mech: core.NewDVV(), Nodes: 3, Seed: 6})
	cl := c.NewClient("", RouteCoordinator)
	ctx := context.Background()
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if c.TotalMetadataBytes() <= 0 {
		t.Fatal("no metadata accounted")
	}
	if c.MaxKeyMetadataBytes("k") <= 0 {
		t.Fatal("no per-key metadata")
	}
	if c.MaxSiblings("k") != 1 {
		t.Fatalf("MaxSiblings = %d", c.MaxSiblings("k"))
	}
}

func TestClusterWithLatencyTransport(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLoopback(), 7)
	t.Cleanup(func() { chaos.Close() })
	chaos.SetDefault(transport.LinkFaults{Delay: 200 * time.Microsecond, PerByte: 10 * time.Nanosecond})
	c := newCluster(t, Config{Mech: core.NewDVV(), Nodes: 3, Transport: chaos, Seed: 7})
	cl := c.NewClient("", RouteCoordinator)
	ctx := context.Background()
	start := time.Now()
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Microsecond {
		t.Fatalf("latency model not applied: %v", elapsed)
	}
	if chaos.BytesSent() == 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestAntiEntropyClusterConverges(t *testing.T) {
	c := newCluster(t, Config{
		Mech: core.NewDVV(), Nodes: 3, N: 3, R: 1, W: 1,
		AntiEntropyInterval: 10 * time.Millisecond, Seed: 8,
	})
	cl := c.NewClient("", RouteCoordinator)
	ctx := context.Background()
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		have := 0
		for _, n := range c.Nodes {
			if _, ok := n.Store().Snapshot("k"); ok {
				have++
			}
		}
		if have == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("anti-entropy did not converge: %d/3", have)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNodeIDsStable(t *testing.T) {
	ids := NodeIDs(3)
	if len(ids) != 3 || ids[0] != "n00" || ids[2] != "n02" {
		t.Fatalf("NodeIDs = %v", ids)
	}
}
