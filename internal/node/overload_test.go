package node

// Tests for the overload plane: ErrOverload's wire round trip, the
// admission controller in the request path, per-peer circuit breakers
// (open → half-open probe → closed under a transport.Chaos heal), and
// hedged-read cancellation hygiene (the package TestMain's leak checker
// gates the drain).

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
		c.MaxQueue = 1
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

// TestBreakerOpensAndRecovers walks the full breaker state machine over a
// chaos partition and heal: consecutive failures open it, an open breaker
// fails fast without paying the timeout, cooldown admits exactly one
// half-open probe, and the probe's success closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	nodes, chaos, _ := testCluster(t, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
		c.BreakerFailures = 3
		c.BreakerCooldown = cooldown
		c.Timeout = 200 * time.Millisecond
	})
	n0, n1 := nodes[0], nodes[1]
	if _, err := n1.Store().Put("k", core.NewDVV().EmptyContext(), []byte("v"), core.WriteInfo{Server: n1.ID(), Client: "c"}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	probe := func() error {
		_, _, err := n0.replGet(ctx, n1.ID(), "k")
		return err
	}
	if err := probe(); err != nil {
		t.Fatalf("healthy replica read: %v", err)
	}

	// Sever n00 → n01 and fail BreakerFailures consecutive sends.
	chaos.PartitionOneWay(n0.ID(), n1.ID())
	for i := 0; i < 3; i++ {
		if err := probe(); err == nil {
			t.Fatalf("send %d succeeded through a severed link", i)
		} else if errors.Is(err, errBreakerOpen) {
			t.Fatalf("breaker opened after only %d failures", i)
		}
	}
	st := n0.Stats()
	if st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}
	// Open: the next call fails fast with errBreakerOpen, in microseconds
	// rather than the transport timeout.
	start := time.Now()
	if err := probe(); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("open breaker let the call through: %v", err)
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("fast-fail took %v — that is not fast", el)
	}
	if st = n0.Stats(); st.BreakerFastFails == 0 {
		t.Fatal("BreakerFastFails not bumped")
	}

	// Heal the link. Before cooldown the breaker still refuses; after
	// cooldown exactly one probe goes through and closes it.
	chaos.HealAll()
	if err := probe(); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("breaker ignored its cooldown: %v", err)
	}
	time.Sleep(cooldown + 10*time.Millisecond)
	if err := probe(); err != nil {
		t.Fatalf("half-open probe failed over a healed link: %v", err)
	}
	snap := n0.BreakerPeer(n1.ID())
	if snap.State != "closed" {
		t.Fatalf("breaker state after successful probe = %s, want closed", snap.State)
	}
	if snap.Probes == 0 {
		t.Fatal("probe not counted")
	}
	if err := probe(); err != nil {
		t.Fatalf("closed breaker refused traffic: %v", err)
	}
	if got := n0.Stats(); got.BreakerProbes != snap.Probes {
		t.Fatalf("extra probes after close: %d != %d", got.BreakerProbes, snap.Probes)
	}
}

// TestBreakerReopensOnFailedProbe: a half-open probe that fails re-opens
// the breaker for another full cooldown.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	const cooldown = 40 * time.Millisecond
	nodes, chaos, _ := testCluster(t, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
		c.BreakerFailures = 2
		c.BreakerCooldown = cooldown
		c.Timeout = 200 * time.Millisecond
	})
	n0, n1 := nodes[0], nodes[1]
	ctx := context.Background()
	probe := func() error {
		_, _, err := n0.replGet(ctx, n1.ID(), "k")
		return err
	}
	chaos.PartitionOneWay(n0.ID(), n1.ID())
	for i := 0; i < 2; i++ {
		probe()
	}
	time.Sleep(cooldown + 10*time.Millisecond)
	// Still partitioned: the probe fails and re-opens immediately.
	if err := probe(); err == nil || errors.Is(err, errBreakerOpen) {
		t.Fatalf("expected the probe itself to be sent and fail, got %v", err)
	}
	if st := n0.Stats(); st.BreakerOpens != 2 {
		t.Fatalf("BreakerOpens = %d, want 2 (reopened by failed probe)", st.BreakerOpens)
	}
	if err := probe(); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("breaker not refusing after failed probe: %v", err)
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
