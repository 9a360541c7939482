package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/transport"
)

// TestEjectorPickPrefersHealthy covers the routing half of client-side
// ejection: an ejected candidate is never picked while healthy ones
// exist, the full list is the fallback when everyone is ejected (the
// recovery probe), and an expired window readmits the node.
func TestEjectorPickPrefersHealthy(t *testing.T) {
	c, err := New(Config{
		Mech: core.NewDVV(), Nodes: 3, N: 3, R: 1, W: 1,
		ClientEjection: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient("picker", RouteOwner)

	sick := c.Nodes[0].ID()
	c.noteEject(sick)
	for i := 0; i < 200; i++ {
		to, err := cl.target("k")
		if err != nil {
			t.Fatal(err)
		}
		if to == sick {
			t.Fatalf("pick %d chose ejected node %s with healthy candidates available", i, sick)
		}
	}

	// With every owner ejected, picks fall back to the full list.
	for _, n := range c.Nodes {
		c.noteEject(n.ID())
	}
	if _, err := cl.target("k"); err != nil {
		t.Fatalf("all-ejected fallback failed: %v", err)
	}

	// After the window expires exactly one pick is admitted as the
	// recovery probe; the window silently re-arms for everyone else.
	time.Sleep(120 * time.Millisecond)
	if c.eject.avoided(sick) {
		t.Fatal("expired ejection did not admit a probe pick")
	}
	if !c.eject.avoided(sick) {
		t.Fatal("probe admission did not re-arm the window for later picks")
	}

	// A successful write readmits the node for real.
	c.noteWriteOK(sick)
	seen := make(map[dot.ID]bool)
	for i := 0; i < 200; i++ {
		to, _ := cl.target("k")
		seen[to] = true
	}
	if !seen[sick] {
		t.Fatalf("node %s never picked after a successful write cleared its ejection", sick)
	}
}

// TestClientEjectsUnreachableCoordinator is the end-to-end half: with
// one owner's client link severed, the first timeout ejects it, and the
// retried request (plus every later one inside the window) lands on a
// healthy owner — so all puts succeed and the ejector records the
// failure.
func TestClientEjectsUnreachableCoordinator(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLoopback(), 3)
	t.Cleanup(func() { chaos.Close() })
	c, err := New(Config{
		Mech: core.NewDVV(), Nodes: 3, N: 3, R: 1, W: 1,
		Transport:      chaos,
		Timeout:        30 * time.Millisecond,
		ClientRetries:  3,
		RetryBudget:    2, // recovery test, not a budget-bound test
		ClientEjection: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient("ejecting", RouteOwner)
	sick := c.Nodes[0].ID()
	chaos.SetLink(cl.ID, sick, transport.LinkFaults{DropRate: 1})

	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if err := cl.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatalf("put %d failed despite two healthy owners: %v", i, err)
		}
	}
	if c.Ejections() == 0 {
		t.Fatal("severed coordinator never fed the ejector")
	}
	// Once ejected, the severed node stops being picked, so ejections
	// stay far below the operation count (no per-op re-discovery).
	if got := c.Ejections(); got > 5 {
		t.Fatalf("ejections = %d, want a handful (routing must avoid the ejected node)", got)
	}
}
