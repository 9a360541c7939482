package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dot"
)

// newChaos wraps a fresh Loopback in Chaos and closes both when the test
// ends.
func newChaos(t *testing.T, seed int64) *Chaos {
	t.Helper()
	c := NewChaos(NewLoopback(), seed)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestChaosPartitionOneWay(t *testing.T) {
	c := newChaos(t, 1)
	c.Register("a", echoHandler(""))
	c.Register("b", echoHandler(""))
	c.PartitionOneWay("a", "b")
	if _, err := c.Send(context.Background(), "a", "b", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("a→b should be severed: %v", err)
	}
	// b→a's request leg is open (the handler runs — see the next test),
	// but its response travels a→b, which the one-way cut eats: b
	// delivers to a yet never hears back. That is the true asymmetric
	// network, and why a one-way cut degrades *both* sides' RPCs while
	// only one direction of raw delivery is lost.
	if _, err := c.Send(context.Background(), "b", "a", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("b→a delivers but the response leg a→b is cut: %v", err)
	}
	c.Heal("a", "b")
	if _, err := c.Send(context.Background(), "a", "b", Request{Method: "x"}); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if _, err := c.Send(context.Background(), "b", "a", Request{Method: "x"}); err != nil {
		t.Fatalf("after heal reverse: %v", err)
	}
}

func TestChaosPartitionOneWayHandlerStillRuns(t *testing.T) {
	// The defining property of the asymmetric cut: traffic in the open
	// direction is *delivered* (the handler runs) even when the reverse
	// leg eats the response.
	c := newChaos(t, 1)
	var delivered atomic.Int64
	c.Register("a", func(_ context.Context, _ dot.ID, req Request) Response {
		delivered.Add(1)
		return Response{}
	})
	c.Register("b", echoHandler(""))
	c.PartitionOneWay("a", "b")
	if _, err := c.Send(context.Background(), "b", "a", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want lost response, got %v", err)
	}
	if delivered.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1 (request leg is open)", delivered.Load())
	}
}

// TestChaosPerByteDelay: PerByte charges every payload byte on the leg,
// which is how C3 turns metadata bloat into request latency.
func TestChaosPerByteDelay(t *testing.T) {
	c := newChaos(t, 1)
	c.Register("srv", func(context.Context, dot.ID, Request) Response { return Response{} })
	c.SetLink("cli", "srv", LinkFaults{PerByte: time.Microsecond})
	start := time.Now()
	if _, err := c.Send(context.Background(), "cli", "srv", Request{Method: "x", Body: make([]byte, 20000)}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("elapsed %v, want ≥ 20ms for 20 KB at 1µs/byte", el)
	}
	// The response leg has no rule and an empty body: no delay there.
	if got := c.Stats().Delayed; got != 1 {
		t.Fatalf("Delayed = %d, want 1", got)
	}
}

// TestChaosDelayNeverNegative: C3 maps Base ± Jitter to Delay = Base −
// Jitter, which is negative when Jitter > Base; such a draw means no
// delay, never a negative one.
func TestChaosDelayNeverNegative(t *testing.T) {
	c := NewChaos(nil, 2)
	c.SetDefault(LinkFaults{Delay: time.Millisecond - 10*time.Millisecond, Reorder: 20 * time.Millisecond})
	for i := 0; i < 1000; i++ {
		if _, d, err := c.admit("a", "b", 0, true); err != nil || d < 0 {
			t.Fatalf("admit = %v, %v; want a non-negative delay", d, err)
		}
	}
}

func TestChaosSeverAndHeal(t *testing.T) {
	c := newChaos(t, 1)
	c.Register("a", echoHandler(""))
	c.Register("b", echoHandler(""))

	c.PartitionOneWay("a", "b")
	if _, err := c.Send(context.Background(), "a", "b", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("severed send: %v", err)
	}
	// b→a request leg is open and the a→b response leg is severed by the
	// same one-way rule.
	if _, err := c.Send(context.Background(), "b", "a", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("response leg should be severed: %v", err)
	}
	if got := c.Stats().Severed; got != 2 {
		t.Fatalf("Severed = %d, want 2", got)
	}
	c.Heal("a", "b")
	if _, err := c.Send(context.Background(), "a", "b", Request{Method: "x"}); err != nil {
		t.Fatalf("after heal: %v", err)
	}

	c.Partition("a", "b")
	if _, err := c.Send(context.Background(), "b", "a", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("both-way partition: %v", err)
	}
	// Unrelated pairs still work.
	if _, err := c.Send(context.Background(), "cli", "a", Request{Method: "x"}); err != nil {
		t.Fatalf("unrelated pair: %v", err)
	}
	c.HealAll()
	if _, err := c.Send(context.Background(), "b", "a", Request{Method: "x"}); err != nil {
		t.Fatalf("after HealAll: %v", err)
	}
}

func TestChaosDropRate(t *testing.T) {
	c := newChaos(t, 7)
	c.Register("srv", echoHandler(""))
	c.SetLink("cli", "srv", LinkFaults{DropRate: 0.5})
	drops := 0
	for i := 0; i < 200; i++ {
		if _, err := c.Send(context.Background(), "cli", "srv", Request{Method: "x"}); errors.Is(err, ErrUnreachable) {
			drops++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if drops < 50 || drops > 150 {
		t.Fatalf("drops = %d of 200 at rate 0.5", drops)
	}
	if got := c.Stats().Dropped; got != uint64(drops) {
		t.Fatalf("Dropped = %d, want %d", got, drops)
	}
	// Unconfigured pairs stay clean.
	if _, err := c.Send(context.Background(), "other", "srv", Request{Method: "x"}); err != nil {
		t.Fatalf("clean pair: %v", err)
	}
}

// TestChaosDefaultDropsBothLegs: the default rule applies to the response
// leg too, so a request fails unless both legs survive their rolls.
func TestChaosDefaultDropsBothLegs(t *testing.T) {
	c := newChaos(t, 42)
	c.Register("srv", echoHandler(""))
	c.SetDefault(LinkFaults{DropRate: 0.5})
	drops := 0
	for i := 0; i < 200; i++ {
		if _, err := c.Send(context.Background(), "cli", "srv", Request{Method: "x"}); err != nil {
			drops++
		}
	}
	if drops < 100 || drops > 180 { // P(fail) = 1-(0.5*0.5) = 0.75 ± noise
		t.Fatalf("drops = %d, expected ~150", drops)
	}
	if got := c.Stats().Dropped; got != uint64(drops) {
		t.Fatalf("Dropped = %d, want %d", got, drops)
	}
}

// TestChaosDefaultDelaysBothLegs: a default Delay is paid on the request
// and on the response leg.
func TestChaosDefaultDelaysBothLegs(t *testing.T) {
	c := newChaos(t, 1)
	c.Register("srv", echoHandler(""))
	c.SetDefault(LinkFaults{Delay: 5 * time.Millisecond})
	start := time.Now()
	if _, err := c.Send(context.Background(), "cli", "srv", Request{Method: "x"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("expected ≥10ms round trip, got %v", elapsed)
	}
	if got := c.Stats().Delayed; got != 2 {
		t.Fatalf("Delayed = %d, want 2", got)
	}
}

func TestChaosDefaultRuleAndOverride(t *testing.T) {
	c := newChaos(t, 3)
	c.Register("srv", echoHandler(""))
	c.SetDefault(LinkFaults{Sever: true})
	c.SetLink("cli", "srv", LinkFaults{DropRate: 1e-12}) // effectively clean, but overrides the default
	// The response leg srv→cli has no explicit rule → default (severed),
	// so give it one too.
	c.SetLink("srv", "cli", LinkFaults{DropRate: 1e-12})
	if _, err := c.Send(context.Background(), "cli", "srv", Request{Method: "x"}); err != nil {
		t.Fatalf("explicit link should override severed default: %v", err)
	}
	if _, err := c.Send(context.Background(), "zzz", "srv", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("default rule should sever unlisted pairs: %v", err)
	}
	c.SetDefault(LinkFaults{})
	if _, err := c.Send(context.Background(), "zzz", "srv", Request{Method: "x"}); err != nil {
		t.Fatalf("after clearing default: %v", err)
	}
}

func TestChaosDuplicationDeliversTwice(t *testing.T) {
	c := newChaos(t, 5)
	var (
		mu    sync.Mutex
		calls int
		done  = make(chan struct{}, 16)
	)
	c.Register("srv", func(_ context.Context, _ dot.ID, req Request) Response {
		mu.Lock()
		calls++
		mu.Unlock()
		select {
		case done <- struct{}{}:
		default:
		}
		return Response{Body: req.Body}
	})
	c.SetLink("cli", "srv", LinkFaults{DupRate: 1})
	resp, err := c.Send(context.Background(), "cli", "srv", Request{Method: "x", Body: []byte("v")})
	if err != nil || string(resp.Body) != "v" {
		t.Fatalf("send: %v %q", err, resp.Body)
	}
	// The duplicate is concurrent; wait for both deliveries.
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		n := calls
		mu.Unlock()
		if n >= 2 {
			break
		}
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("handler calls = %d, want 2 (original + duplicate)", n)
		}
	}
	if got := c.Stats().Duplicated; got != 1 {
		t.Fatalf("Duplicated = %d, want 1", got)
	}
}

func TestChaosReorderDelays(t *testing.T) {
	c := newChaos(t, 9)
	c.Register("srv", echoHandler(""))
	c.SetLink("cli", "srv", LinkFaults{Delay: 2 * time.Millisecond, Reorder: time.Millisecond})
	start := time.Now()
	if _, err := c.Send(context.Background(), "cli", "srv", Request{Method: "x"}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("elapsed %v, want ≥ 2ms injected delay", el)
	}
	if got := c.Stats().Delayed; got == 0 {
		t.Fatal("Delayed counter not bumped")
	}
	// A severe delay respects context cancellation.
	c.SetLink("cli", "srv", LinkFaults{Delay: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := c.Send(ctx, "cli", "srv", Request{Method: "x"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestChaosDelegatesAddrBookAndMeter(t *testing.T) {
	inner := NewLoopback()
	c := NewChaos(inner, 2)
	t.Cleanup(func() { c.Close() })
	c.Register("srv", echoHandler(""))
	if _, err := c.Send(context.Background(), "cli", "srv", Request{Method: "x", Body: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	// hello + request from cli's mux, response from srv's.
	eventually(t, func() bool { return c.MessagesSent() == 3 }, func() string {
		return fmt.Sprintf("chaos MessagesSent = %d, want 3", c.MessagesSent())
	})
	if c.MessagesSent() != inner.MessagesSent() {
		t.Fatalf("meter passthrough: chaos %d, inner %d", c.MessagesSent(), inner.MessagesSent())
	}
	if c.BytesSent() != inner.BytesSent() || c.BytesSent() == 0 {
		t.Fatalf("bytes passthrough: chaos %d, inner %d", c.BytesSent(), inner.BytesSent())
	}
	// Loopback has no AddrBook — the delegations degrade gracefully.
	c.SetAddr("srv", "host:1")
	if got := c.Addr(); got != "" {
		t.Fatalf("Addr over a bookless inner transport = %q", got)
	}
	if c.Peers() != nil {
		t.Fatal("Peers should be nil over a bookless inner transport")
	}
}
