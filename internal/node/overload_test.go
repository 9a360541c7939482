package node

// Tests for the overload plane: ErrOverload's wire round trip, the
// admission controller in the request path, hedged reads that skip a
// suspected peer, and hedged-read cancellation hygiene (the package
// TestMain's leak checker gates the drain).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/transport"
)

func TestIsOverloadFlattened(t *testing.T) {
	if !IsOverload(ErrOverload) {
		t.Fatal("direct ErrOverload not recognised")
	}
	if !IsOverload(fmt.Errorf("wrap: %w", ErrOverload)) {
		t.Fatal("wrapped ErrOverload not recognised")
	}
	// The transport flattens app errors to strings; recognition must
	// survive that, exactly like IsNotFound.
	if !IsOverload(errors.New(`cluster: get "k": node: overloaded (node n00)`)) {
		t.Fatal("flattened overload string not recognised")
	}
	if IsOverload(errors.New("some other failure")) || IsOverload(nil) {
		t.Fatal("false positive")
	}
}

// TestErrOverloadWireRoundTrip drives a coordinator into admission shed
// through the real transport and asserts the client-visible error is
// recognised by IsOverload after string flattening.
func TestErrOverloadWireRoundTrip(t *testing.T) {
	nodes, chaos, r := testCluster(t, 3, func(c *Config) {
		c.MaxInFlight = 1
		c.QueueTarget = time.Millisecond
	})
	co := ownerOf(t, nodes, r, "hot")
	// Slow every replica link so each admitted get holds its slot for
	// ~100ms, far longer than the queue target.
	for _, a := range nodes {
		for _, b := range nodes {
			if a.ID() != b.ID() {
				chaos.SetLink(a.ID(), b.ID(), transport.LinkFaults{Delay: 100 * time.Millisecond})
			}
		}
	}

	ctx := context.Background()
	body := EncodeGetRequest(core.NewDVV(), "hot", ReadOptions{NotFoundOK: true})
	const burst = 8
	errs := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := chaos.Send(ctx, dot.ID(fmt.Sprintf("client-%d", i)), co.ID(), transport.Request{
				Method: MethodGet, Body: body,
			})
			if err != nil {
				errs <- err
				return
			}
			errs <- transport.AppError(resp)
		}(i)
	}
	wg.Wait()
	close(errs)
	overloads := 0
	for err := range errs {
		if IsOverload(err) {
			overloads++
		}
	}
	if overloads == 0 {
		t.Fatal("no request was shed with a wire-recognisable ErrOverload")
	}
	if shed := co.Stats().Shed; shed == 0 {
		t.Fatal("Stats.Shed not bumped")
	}
}

// TestHedgedReadSkipsSuspectedPeer: a hedged quorum read contacts an
// unsuspected replica before one that just failed a send, and returns at
// quorum without hedging; PeerRPC counts the suspected peer's failed
// send and, after the heal, its completed one.
func TestHedgedReadSkipsSuspectedPeer(t *testing.T) {
	nodes, chaos, r := testCluster(t, 3, func(c *Config) {
		c.N, c.R, c.W = 3, 2, 2
		c.HedgedReads = true
		c.SuspicionWindow = time.Minute
	})
	const key = "k"
	co := ownerOf(t, nodes, r, key)
	for _, n := range nodes {
		if _, err := n.Store().Put(key, core.NewDVV().EmptyContext(), []byte("v"), core.WriteInfo{Server: co.ID(), Client: "c"}); err != nil {
			t.Fatal(err)
		}
	}
	// Without suspicion, first would be the read's only primary.
	peers := withoutID(r.Preference(key, 3), co.ID())
	first, second := peers[0], peers[1]
	// A hedge delay no loopback reply exceeds, so the read below never
	// reaches first through the hedge.
	for i := 0; i < hedgeMinSamples; i++ {
		co.hedgeLat.record(co.cfg.Timeout)
	}

	ctx := context.Background()
	chaos.PartitionOneWay(co.ID(), first)
	if _, _, err := co.replGet(ctx, first, key); err == nil {
		t.Fatal("send succeeded through a severed link")
	}
	if !co.Suspected(first) {
		t.Fatal("failed send did not suspect the peer")
	}
	if got := co.PeerRPC(first).Sends; got != 1 {
		t.Fatalf("PeerRPC(%s).Sends = %d after one failed send, want 1", first, got)
	}

	rr, err := co.CoordinateGet(ctx, key, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedVals(rr); len(got) != 1 || got[0] != "v" {
		t.Fatalf("read = %v, want [v]", got)
	}
	if got := co.PeerRPC(first).Sends; got != 1 {
		t.Fatalf("suspected peer contacted by the read: %d sends, want 1", got)
	}
	if got := co.PeerRPC(second).Sends; got != 1 {
		t.Fatalf("healthy peer sends = %d, want 1", got)
	}
	if st := co.Stats(); st.HedgedReads != 0 {
		t.Fatalf("read hedged %d times; the healthy peer alone makes quorum", st.HedgedReads)
	}

	chaos.HealAll()
	if _, _, err := co.replGet(ctx, first, key); err != nil {
		t.Fatalf("send over a healed link: %v", err)
	}
	cost := co.PeerRPC(first)
	if cost.Sends != 2 || cost.Latency <= 0 || cost.Mean() <= 0 {
		t.Fatalf("PeerRPC(%s) = %+v, want 2 sends with positive latency", first, cost)
	}
	if co.Suspected(first) {
		t.Fatal("completed send left the peer suspected")
	}
}

// TestHedgedReadCancellation issues hedged reads whose context dies
// mid-flight; correctness is "no deadlock, an error surfaces", and the
// package leak checker proves the fan-out goroutines all drain.
func TestHedgedReadCancellation(t *testing.T) {
	nodes, chaos, r := testCluster(t, 4, func(c *Config) {
		c.N, c.R, c.W = 3, 2, 2
		c.HedgedReads = true
	})
	co := ownerOf(t, nodes, r, "slow-key")
	for _, b := range nodes {
		if b.ID() != co.ID() {
			chaos.SetLink(co.ID(), b.ID(), transport.LinkFaults{Delay: 200 * time.Millisecond})
		}
	}
	if _, err := co.Store().Put("slow-key", core.NewDVV().EmptyContext(), []byte("v"), core.WriteInfo{Server: co.ID(), Client: "c"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := co.CoordinateGet(ctx, "slow-key", ReadOptions{NotFoundOK: true})
		cancel()
		if err == nil {
			t.Fatal("quorum read met with every replica link at 200ms and a 20ms budget")
		}
	}
}
