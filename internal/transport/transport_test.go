package transport

import (
	"context"
	"errors"
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
