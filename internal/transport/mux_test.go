package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dot"
)

func newMuxPair(t *testing.T) (*Mux, *Mux) {
	t.Helper()
	a := NewMux("a", map[dot.ID]string{"a": "127.0.0.1:0"})
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b := NewMux("b", map[dot.ID]string{"b": "127.0.0.1:0"})
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.SetAddr("b", b.Addr())
	b.SetAddr("a", a.Addr())
	return a, b
}

// eventually polls cond until it holds, failing the test with msg once a
// deadline passes. Meter counters are bumped by the writer loop after the
// kernel write returns, so a response can reach its caller before the
// request frame — or, on the peer, the response frame — is counted.
func eventually(t *testing.T, cond func() bool, msg func() string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMuxSendReceive(t *testing.T) {
	a, b := newMuxPair(t)
	b.Register("b", echoHandler("mux-"))
	resp, err := a.Send(context.Background(), "a", "b", Request{Method: "get", Body: []byte("key")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "mux-get:key:a" {
		t.Fatalf("resp = %q", resp.Body)
	}
	if _, err := a.Send(context.Background(), "a", "b", Request{Method: "get", Body: []byte("k2")}); err != nil {
		t.Fatal(err)
	}
	eventually(t, func() bool { return a.MessagesSent() >= 3 && a.BytesSent() > 0 }, func() string { // hello + 2 requests
		return fmt.Sprintf("MessagesSent = %d, BytesSent = %d, want >= 3 and > 0", a.MessagesSent(), a.BytesSent())
	})
	eventually(t, func() bool { return b.MessagesSent() >= 2 }, func() string { // 2 responses
		return fmt.Sprintf("server MessagesSent = %d, want >= 2", b.MessagesSent())
	})
}

func TestMuxBothDirectionsShareAConnection(t *testing.T) {
	a, b := newMuxPair(t)
	a.Register("a", echoHandler("from-a-"))
	b.Register("b", echoHandler("from-b-"))
	// a dials b; b should then reach a over the same accepted connection
	// without dialing back.
	if _, err := a.Send(context.Background(), "a", "b", Request{Method: "m"}); err != nil {
		t.Fatal(err)
	}
	resp, err := b.Send(context.Background(), "b", "a", Request{Method: "m", Body: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "from-a-m:x:b" {
		t.Fatalf("resp = %q", resp.Body)
	}
}

func TestMuxNoHandler(t *testing.T) {
	a, b := newMuxPair(t)
	_ = b // no handler registered
	resp, err := a.Send(context.Background(), "a", "b", Request{Method: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if AppError(resp) == nil {
		t.Fatal("expected application error for missing handler")
	}
}

func TestMuxUnknownPeer(t *testing.T) {
	a, _ := newMuxPair(t)
	if _, err := a.Send(context.Background(), "a", "ghost", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestMuxOutOfOrderResponses(t *testing.T) {
	a, b := newMuxPair(t)
	release := make(chan struct{})
	b.Register("b", func(_ context.Context, _ dot.ID, req Request) Response {
		if req.Method == "slow" {
			<-release
		}
		return Response{Body: req.Body}
	})
	slowDone := make(chan error, 1)
	go func() {
		_, err := a.Send(context.Background(), "a", "b", Request{Method: "slow", Body: []byte("s")})
		slowDone <- err
	}()
	// The fast request must complete while the slow one is parked on the
	// same connection — the whole point of multiplexing.
	fctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := a.Send(fctx, "a", "b", Request{Method: "fast", Body: []byte("f")})
	if err != nil {
		t.Fatalf("fast request blocked behind slow one: %v", err)
	}
	if string(resp.Body) != "f" {
		t.Fatalf("resp = %q", resp.Body)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestMuxTimeoutKeepsConnection is the conn-churn satellite: a request
// deadline must fail that request only — the shared connection stays up,
// later requests reuse it, and no reconnect happens.
func TestMuxTimeoutKeepsConnection(t *testing.T) {
	a, b := newMuxPair(t)
	var slow atomic.Bool
	slow.Store(true)
	release := make(chan struct{})
	defer close(release)
	b.Register("b", func(_ context.Context, _ dot.ID, req Request) Response {
		if slow.Load() {
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
		}
		return Response{Body: []byte("ok")}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := a.Send(ctx, "a", "b", Request{Method: "m"})
	cancel()
	if err == nil {
		t.Fatal("expected deadline error")
	}
	slow.Store(false)
	resp, err := a.Send(context.Background(), "a", "b", Request{Method: "m"})
	if err != nil {
		t.Fatalf("send after timeout should reuse the connection: %v", err)
	}
	if string(resp.Body) != "ok" {
		t.Fatalf("resp = %q", resp.Body)
	}
	if r := a.Reconnects(); r != 0 {
		t.Fatalf("Reconnects = %d after a deadline-only failure, want 0", r)
	}
}

// TestMuxPeerRestartReconnects kills the serving peer mid-stream and
// brings a new one up on the same address: the client's next sends must
// re-establish the connection (counted in Reconnects) and succeed.
func TestMuxPeerRestartReconnects(t *testing.T) {
	srv := NewMux("srv", map[dot.ID]string{"srv": "127.0.0.1:0"})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	srv.Register("srv", echoHandler("one-"))
	addr := srv.Addr()

	cli := NewMux("cli", map[dot.ID]string{"srv": addr})
	defer cli.Close()
	if _, err := cli.Send(context.Background(), "cli", "srv", Request{Method: "m"}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := NewMux("srv", map[dot.ID]string{"srv": addr})
	// The freed port can take a moment to rebind.
	var lerr error
	for i := 0; i < 50; i++ {
		if lerr = srv2.Listen(); lerr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lerr != nil {
		t.Fatalf("rebind %s: %v", addr, lerr)
	}
	defer srv2.Close()
	srv2.Register("srv", echoHandler("two-"))

	// Sends may fail while the client discovers the dead conn and while
	// the dial backoff cools off; they must succeed again within a bound.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		resp, err := cli.Send(ctx, "cli", "srv", Request{Method: "m", Body: []byte("x")})
		cancel()
		if err == nil {
			if string(resp.Body) != "two-m:x:cli" {
				t.Fatalf("resp = %q", resp.Body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reconnected: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cli.Reconnects() == 0 {
		t.Fatal("Reconnects = 0 after peer restart")
	}
}

// TestMuxDeregisterWithInflight races Deregister against requests parked
// in a slow handler: they must all resolve (with errors), later sends
// must fail ErrUnreachable, and nothing may deadlock.
func TestMuxDeregisterWithInflight(t *testing.T) {
	a, b := newMuxPair(t)
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	defer close(release)
	b.Register("b", func(_ context.Context, _ dot.ID, req Request) Response {
		started <- struct{}{}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return Response{Body: []byte("late")}
	})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err := a.Send(ctx, "a", "b", Request{Method: "m"})
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		<-started // every request is in the handler, i.e. in flight
	}
	a.Deregister("b")
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("in-flight request succeeded across Deregister; want error")
		}
	}
	if _, err := a.Send(context.Background(), "a", "b", Request{Method: "m"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send after deregister: %v, want ErrUnreachable", err)
	}
}

// TestMuxDeregisterInsideHandlerStillResponds is the member.leave shape:
// the server deregisters the requesting peer from inside the handler
// that answers it, over the connection that carries the request. The
// response must still arrive, and the server must then treat the peer as
// unknown.
func TestMuxDeregisterInsideHandlerStillResponds(t *testing.T) {
	a, b := newMuxPair(t)
	b.Register("b", func(_ context.Context, from dot.ID, req Request) Response {
		b.Deregister(from)
		return Response{Body: []byte("bye")}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := a.Send(ctx, "a", "b", Request{Method: "leave"})
	if err != nil {
		t.Fatalf("response lost to the handler's Deregister: %v", err)
	}
	if string(resp.Body) != "bye" {
		t.Fatalf("resp = %q", resp.Body)
	}
	if _, ok := b.Peers()["a"]; ok {
		t.Fatal("server still lists the deregistered peer")
	}
	if _, err := b.Send(ctx, "b", "a", Request{Method: "m"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("server send to deregistered peer: %v, want ErrUnreachable", err)
	}
}

// TestMuxCloseWithInflight shuts the serving transport down with requests
// in flight; the clients must all unblock with errors.
func TestMuxCloseWithInflight(t *testing.T) {
	a, b := newMuxPair(t)
	started := make(chan struct{}, 16)
	b.Register("b", func(ctx context.Context, _ dot.ID, req Request) Response {
		started <- struct{}{}
		time.Sleep(50 * time.Millisecond)
		return Response{Body: []byte("late")}
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, _ = a.Send(ctx, "a", "b", Request{Method: "m"})
		}()
	}
	for i := 0; i < 4; i++ {
		<-started
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // must not hang
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMuxManyGoroutinesOnePeer is the -race stress test: many goroutines
// hammer one peer over the single shared connection and every response
// must match its request (no cross-wiring of reqIDs).
func TestMuxManyGoroutinesOnePeer(t *testing.T) {
	a, b := newMuxPair(t)
	b.Register("b", echoHandler(""))
	goroutines, perG := 32, 50
	if testing.Short() {
		goroutines, perG = 8, 20
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				body := fmt.Sprintf("g%d-i%d", g, i)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				resp, err := a.Send(ctx, "a", "b", Request{Method: "m", Body: []byte(body)})
				cancel()
				if err != nil {
					errs <- err
					return
				}
				if want := "m:" + body + ":a"; string(resp.Body) != want {
					errs <- fmt.Errorf("cross-wired response: got %q want %q", resp.Body, want)
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
	eventually(t, func() bool { return a.Flushes() > 0 && a.MessagesSent() >= uint64(goroutines*perG) }, func() string {
		return fmt.Sprintf("counters: msgs=%d flushes=%d", a.MessagesSent(), a.Flushes())
	})
	if a.Flushes() > a.MessagesSent() {
		t.Fatalf("more flushes (%d) than frames (%d)", a.Flushes(), a.MessagesSent())
	}
}

func TestMuxDialBackoffFailsFast(t *testing.T) {
	// A dead address: grab a port and close the listener so nothing
	// accepts there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	cli := NewMux("cli", map[dot.ID]string{"gone": deadAddr})
	defer cli.Close()
	if _, err := cli.Send(context.Background(), "cli", "gone", Request{Method: "m"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("first send: %v", err)
	}
	// Immediately after a failed dial the backoff gate must answer
	// without dialing again.
	start := time.Now()
	_, err = cli.Send(context.Background(), "cli", "gone", Request{Method: "m"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("second send: %v", err)
	}
	if !strings.Contains(err.Error(), "backoff") {
		t.Logf("note: second dial raced the backoff window: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("backed-off send did not fail fast")
	}
}

// TestMuxOversizedFrameFailsRequestOnly: a request too big to frame must
// fail at its caller without touching the shared connection.
func TestMuxOversizedFrameFailsRequestOnly(t *testing.T) {
	a, b := newMuxPair(t)
	b.Register("b", echoHandler(""))
	if _, err := a.Send(context.Background(), "a", "b", Request{Method: "m"}); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 1<<26) // pushes the frame past codec.MaxFrameBytes
	if _, err := a.Send(context.Background(), "a", "b", Request{Method: "m", Body: huge}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized send: err = %v, want frame-limit error", err)
	}
	if _, err := a.Send(context.Background(), "a", "b", Request{Method: "m", Body: []byte("ok")}); err != nil {
		t.Fatalf("connection did not survive the oversized request: %v", err)
	}
	if a.Reconnects() != 0 {
		t.Fatalf("Reconnects = %d, want 0", a.Reconnects())
	}
}

func TestMuxSendAfterClose(t *testing.T) {
	a, b := newMuxPair(t)
	b.Register("b", echoHandler(""))
	if _, err := a.Send(context.Background(), "a", "b", Request{Method: "m"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(context.Background(), "a", "b", Request{Method: "m"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
