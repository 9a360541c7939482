package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dot"
)

func echoHandler(prefix string) Handler {
	return func(_ context.Context, from dot.ID, req Request) Response {
		return Response{Body: []byte(prefix + req.Method + ":" + string(req.Body) + ":" + string(from))}
	}
}

func TestMemorySendReceive(t *testing.T) {
	m := NewMemory(MemoryConfig{Seed: 1})
	defer m.Close()
	m.Register("srv", echoHandler("ok-"))
	resp, err := m.Send(context.Background(), "cli", "srv", Request{Method: "get", Body: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "ok-get:k:cli" {
		t.Fatalf("resp = %q", resp.Body)
	}
	if m.MessagesSent() != 2 { // request + response
		t.Fatalf("MessagesSent = %d", m.MessagesSent())
	}
	if m.BytesSent() == 0 {
		t.Fatal("BytesSent = 0")
	}
}

func TestMemoryUnknownDestination(t *testing.T) {
	m := NewMemory(MemoryConfig{})
	defer m.Close()
	_, err := m.Send(context.Background(), "cli", "ghost", Request{Method: "x"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestMemoryPartitionAndHeal(t *testing.T) {
	m := NewMemory(MemoryConfig{})
	defer m.Close()
	m.Register("a", echoHandler(""))
	m.Register("b", echoHandler(""))
	m.Partition("a", "b")
	if _, err := m.Send(context.Background(), "a", "b", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned send: %v", err)
	}
	if _, err := m.Send(context.Background(), "b", "a", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("reverse direction should be cut too: %v", err)
	}
	// Unrelated pairs still work.
	if _, err := m.Send(context.Background(), "cli", "a", Request{Method: "x"}); err != nil {
		t.Fatalf("unrelated pair: %v", err)
	}
	m.Heal("a", "b")
	if _, err := m.Send(context.Background(), "a", "b", Request{Method: "x"}); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	m.Partition("a", "b")
	m.HealAll()
	if _, err := m.Send(context.Background(), "a", "b", Request{Method: "x"}); err != nil {
		t.Fatalf("after HealAll: %v", err)
	}
}

func TestMemoryDropRate(t *testing.T) {
	m := NewMemory(MemoryConfig{DropRate: 0.5, Seed: 42})
	defer m.Close()
	m.Register("srv", echoHandler(""))
	drops := 0
	for i := 0; i < 200; i++ {
		if _, err := m.Send(context.Background(), "cli", "srv", Request{Method: "x"}); err != nil {
			drops++
		}
	}
	if drops < 100 || drops > 180 { // P(fail) = 1-(0.5*0.5) = 0.75 ± noise
		t.Fatalf("drops = %d, expected ~150", drops)
	}
}

func TestMemoryLatencyDelays(t *testing.T) {
	m := NewMemory(MemoryConfig{Latency: FixedLatency{Base: 5 * time.Millisecond}, Seed: 1})
	defer m.Close()
	m.Register("srv", echoHandler(""))
	start := time.Now()
	if _, err := m.Send(context.Background(), "cli", "srv", Request{Method: "x"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("expected ≥10ms round trip, got %v", elapsed)
	}
}

func TestMemorySyntheticModeDoesNotSleep(t *testing.T) {
	m := NewMemory(MemoryConfig{Latency: FixedLatency{Base: time.Hour}, Synthetic: true, Seed: 1})
	defer m.Close()
	m.Register("srv", echoHandler(""))
	start := time.Now()
	if _, err := m.Send(context.Background(), "cli", "srv", Request{Method: "x"}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("synthetic mode slept")
	}
	if m.SimClock() < 2*time.Hour {
		t.Fatalf("SimClock = %v, want ≥2h", m.SimClock())
	}
}

func TestMemoryContextCancellation(t *testing.T) {
	m := NewMemory(MemoryConfig{Latency: FixedLatency{Base: time.Minute}, Seed: 1})
	defer m.Close()
	m.Register("srv", echoHandler(""))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := m.Send(ctx, "cli", "srv", Request{Method: "x"})
	if err == nil {
		t.Fatal("expected context error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not cut the wait short")
	}
}

func TestMemoryClosed(t *testing.T) {
	m := NewMemory(MemoryConfig{})
	m.Register("srv", echoHandler(""))
	m.Close()
	if _, err := m.Send(context.Background(), "cli", "srv", Request{Method: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestMemoryPerByteLatency(t *testing.T) {
	lat := FixedLatency{PerByte: time.Microsecond}
	r := rand.New(rand.NewSource(1))
	small := lat.Sample(r, 10)
	big := lat.Sample(r, 10000)
	if big <= small {
		t.Fatalf("per-byte latency not monotone: %v vs %v", small, big)
	}
}

func TestFixedLatencyNeverNegative(t *testing.T) {
	lat := FixedLatency{Base: time.Millisecond, Jitter: 10 * time.Millisecond}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		if d := lat.Sample(r, 0); d < 0 {
			t.Fatalf("negative latency %v", d)
		}
	}
}

func TestMemoryConcurrentSends(t *testing.T) {
	m := NewMemory(MemoryConfig{Latency: FixedLatency{Base: time.Microsecond, Jitter: time.Microsecond}, Seed: 3})
	defer m.Close()
	m.Register("srv", echoHandler(""))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				from := dot.ID(fmt.Sprintf("cli%d", g))
				resp, err := m.Send(context.Background(), from, "srv", Request{Method: "m", Body: []byte("b")})
				if err != nil {
					errs <- err
					return
				}
				if !strings.HasSuffix(string(resp.Body), string(from)) {
					errs <- fmt.Errorf("cross-talk: %q", resp.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// TCP wire: a dial-only client against a listening server, the shape
// dvvstore's get/put/stats commands use. (The TestMux* pairs both listen.)
// ---------------------------------------------------------------------------

// newTCPPair starts a listening server "b" and a dial-only client "a"
// that knows only b's address.
func newTCPPair(t *testing.T) (a, b *Mux) {
	t.Helper()
	b = NewMux("b", map[dot.ID]string{"b": "127.0.0.1:0"})
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a = NewMux("a", map[dot.ID]string{"b": b.Addr()})
	t.Cleanup(func() { a.Close() })
	return a, b
}

func TestTCPSendReceive(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("b", echoHandler("tcp-"))
	resp, err := a.Send(context.Background(), "a", "b", Request{Method: "get", Body: []byte("key")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "tcp-get:key:a" {
		t.Fatalf("resp = %q", resp.Body)
	}
	// Second request reuses the connection.
	if _, err := a.Send(context.Background(), "a", "b", Request{Method: "get", Body: []byte("k2")}); err != nil {
		t.Fatal(err)
	}
	if r := a.Reconnects(); r != 0 {
		t.Fatalf("Reconnects = %d, want 0", r)
	}
}

func TestTCPNoHandler(t *testing.T) {
	a, b := newTCPPair(t)
	_ = b // no handler registered on b
	resp, err := a.Send(context.Background(), "a", "b", Request{Method: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("expected application error for missing handler")
	}
	if AppError(resp) == nil {
		t.Fatal("AppError should be non-nil")
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := newTCPPair(t)
	if _, err := a.Send(context.Background(), "a", "ghost", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("b", echoHandler(""))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := a.Send(context.Background(), "a", "b", Request{Method: "m"}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPCloseUnblocks(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("b", echoHandler(""))
	if _, err := a.Send(context.Background(), "a", "b", Request{Method: "m"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// after close, sends to b fail
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := a.Send(ctx, "a", "b", Request{Method: "m"}); err == nil {
		t.Fatal("send to closed peer succeeded")
	}
}

func TestAppError(t *testing.T) {
	if AppError(Response{}) != nil {
		t.Fatal("empty Err should be nil")
	}
	if err := AppError(Response{Err: "boom"}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestMemoryDeregister(t *testing.T) {
	m := NewMemory(MemoryConfig{})
	defer m.Close()
	m.Register("a", func(ctx context.Context, from dot.ID, req Request) Response {
		return Response{Body: []byte("ok")}
	})
	if _, err := m.Send(context.Background(), "x", "a", Request{Method: "ping"}); err != nil {
		t.Fatalf("send before deregister: %v", err)
	}
	m.Deregister("a")
	if _, err := m.Send(context.Background(), "x", "a", Request{Method: "ping"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send after deregister: err = %v, want ErrUnreachable", err)
	}
	m.Deregister("a") // no-op
}

func TestTCPDeregisterAndPeers(t *testing.T) {
	cli, srv := newTCPPair(t)
	srv.Register("b", func(ctx context.Context, from dot.ID, req Request) Response {
		return Response{Body: []byte("pong")}
	})
	if got := srv.Peers()["b"]; got != srv.Addr() {
		t.Fatalf("server Peers()[b] = %q, want its own address %q", got, srv.Addr())
	}
	if got := cli.Peers()["b"]; got != srv.Addr() {
		t.Fatalf("Peers()[b] = %q, want %q", got, srv.Addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := cli.Send(ctx, "a", "b", Request{Method: "ping"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	cli.Deregister("b")
	if _, ok := cli.Peers()["b"]; ok {
		t.Fatal("Peers() still lists a deregistered peer")
	}
	if _, err := cli.Send(ctx, "a", "b", Request{Method: "ping"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send after deregister: err = %v, want ErrUnreachable", err)
	}
}
