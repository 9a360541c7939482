package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dot"
)

// newLoopback returns a Loopback closed when the test ends.
func newLoopback(t *testing.T) *Loopback {
	t.Helper()
	l := NewLoopback()
	t.Cleanup(func() { l.Close() })
	return l
}

func TestLoopbackSendReceive(t *testing.T) {
	l := newLoopback(t)
	l.Register("srv", echoHandler("ok-"))
	resp, err := l.Send(context.Background(), "cli", "srv", Request{Method: "get", Body: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "ok-get:k:cli" {
		t.Fatalf("resp = %q", resp.Body)
	}
	// The shared client mux wrote hello + request, srv's mux the
	// response; the Meter sums both.
	cli, srv := l.clients, l.muxes["srv"]
	eventually(t, func() bool { return l.MessagesSent() == 3 }, func() string {
		return fmt.Sprintf("MessagesSent = %d, want 3", l.MessagesSent())
	})
	if got, want := l.MessagesSent(), cli.MessagesSent()+srv.MessagesSent(); got != want {
		t.Fatalf("MessagesSent = %d, muxes sum to %d", got, want)
	}
	if got, want := l.BytesSent(), cli.BytesSent()+srv.BytesSent(); got != want || srv.BytesSent() == 0 {
		t.Fatalf("BytesSent = %d, muxes sum to %d (srv %d)", got, want, srv.BytesSent())
	}
}

func TestLoopbackUnknownDestination(t *testing.T) {
	l := newLoopback(t)
	if _, err := l.Send(context.Background(), "cli", "ghost", Request{Method: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

// TestLoopbackDeregisterFailsFast: a deregistered id is forgotten by every
// mux, so the next Send fails at once instead of waiting out a dial.
func TestLoopbackDeregisterFailsFast(t *testing.T) {
	l := newLoopback(t)
	l.Register("a", echoHandler(""))
	if _, err := l.Send(context.Background(), "x", "a", Request{Method: "ping"}); err != nil {
		t.Fatalf("send before deregister: %v", err)
	}
	l.Deregister("a")
	start := time.Now()
	if _, err := l.Send(context.Background(), "x", "a", Request{Method: "ping"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send after deregister: err = %v, want ErrUnreachable", err)
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("send after deregister took %v, want < 50ms", el)
	}
	l.Deregister("a") // no-op
}

// TestLoopbackReregisterAfterDeregister: a restarted id is reachable on
// the first Send, even from a peer that had backed off dialing the old
// incarnation.
func TestLoopbackReregisterAfterDeregister(t *testing.T) {
	l := newLoopback(t)
	l.Register("a", echoHandler("old-"))
	if _, err := l.Send(context.Background(), "x", "a", Request{Method: "ping"}); err != nil {
		t.Fatal(err)
	}
	// Crash a's host: x's connection dies and its redial fails, which
	// arms x's dial backoff for a.
	l.muxes["a"].Close()
	eventually(t, func() bool {
		_, err := l.Send(context.Background(), "x", "a", Request{Method: "ping"})
		return err != nil && strings.Contains(err.Error(), "dial backoff")
	}, func() string { return "x never backed off dialing the dead a" })

	l.Deregister("a")
	l.Register("a", echoHandler("new-"))
	resp, err := l.Send(context.Background(), "x", "a", Request{Method: "ping"})
	if err != nil {
		t.Fatalf("first send after re-register: %v", err)
	}
	if string(resp.Body) != "new-ping::x" {
		t.Fatalf("resp = %q, want the new handler's", resp.Body)
	}
}

// TestLoopbackDeregisterInsideHandlerStillResponds is the Loopback shape
// of TestMuxDeregisterInsideHandlerStillResponds: a peer answering
// member.leave deregisters the leaver from inside the handler, and the
// leaver must still get that answer.
func TestLoopbackDeregisterInsideHandlerStillResponds(t *testing.T) {
	l := newLoopback(t)
	l.Register("a", echoHandler(""))
	l.Register("b", func(_ context.Context, from dot.ID, req Request) Response {
		l.Deregister(from)
		return Response{Body: []byte("bye")}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := l.Send(ctx, "a", "b", Request{Method: "leave"})
	if err != nil {
		t.Fatalf("response lost to the handler's Deregister: %v", err)
	}
	if string(resp.Body) != "bye" {
		t.Fatalf("resp = %q", resp.Body)
	}
	if _, err := l.Send(ctx, "b", "a", Request{Method: "m"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send to the deregistered leaver: %v, want ErrUnreachable", err)
	}
}

// TestLoopbackSendHonoursDeadline is the deadline regression: the caller's
// context bounds the exchange even while the handler is stalled. The
// in-process Memory transport this replaced ran the handler on the
// caller's goroutine, so this Send waited the full 2 s there.
func TestLoopbackSendHonoursDeadline(t *testing.T) {
	l := newLoopback(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs before the Loopback closes
	l.Register("slow", func(context.Context, dot.ID, Request) Response {
		select {
		case <-time.After(2 * time.Second):
		case <-release:
		}
		return Response{}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := l.Send(ctx, "cli", "slow", Request{Method: "x"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context deadline", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("Send returned after %v, want < 500ms", el)
	}
}

func TestLoopbackConcurrentSends(t *testing.T) {
	l := newLoopback(t)
	l.Register("srv", echoHandler(""))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			from := dot.ID(fmt.Sprintf("cli%d", g))
			for i := 0; i < 50; i++ {
				resp, err := l.Send(context.Background(), from, "srv", Request{Method: "m", Body: []byte("b")})
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

// TestLoopbackCloseLeavesNoGoroutines: Close shuts every mux — listening,
// dial-only and deregistered — and later Sends fail with ErrClosed.
func TestLoopbackCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	l := NewLoopback()
	l.Register("a", echoHandler(""))
	l.Register("b", echoHandler(""))
	for _, p := range [][2]dot.ID{{"a", "b"}, {"b", "a"}, {"cli", "a"}} {
		if _, err := l.Send(context.Background(), p[0], p[1], Request{Method: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Deregister("b")
	l.Close()
	if _, err := l.Send(context.Background(), "cli", "a", Request{Method: "m"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after Close: %v, want ErrClosed", err)
	}
	eventually(t, func() bool { return runtime.NumGoroutine() <= before }, func() string {
		return fmt.Sprintf("goroutines: %d after Close, %d before", runtime.NumGoroutine(), before)
	})
}
