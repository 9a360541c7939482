package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dot"
)

// lifetimeBody is request i's body: unique, and of varying length so
// that frames of different sizes share the connection's read buffer.
func lifetimeBody(i int) []byte {
	return []byte(fmt.Sprintf("body-%05d-%s", i, strings.Repeat("x", i%97)))
}

// TestMuxBodiesSurviveLaterFrames pins the frame path's ownership rules.
// Inbound bodies alias a frame that is never reused, so a handler may
// retain req.Body and a caller its Response.Body however much traffic
// follows; a caller may reuse its own req.Body once Send returns. The
// pooled outbound writers and recycled reply channels must never serve
// two users, including across Send's oversized, ctx-cancelled and
// peer-died paths: every successful response must be its own request's
// echo, and the free lists must hold only idle, distinct channels.
func TestMuxBodiesSurviveLaterFrames(t *testing.T) {
	a, b := newMuxPair(t)
	var mu sync.Mutex
	kept := make(map[string][]byte) // body text → the handler's retained req.Body
	hold := make(chan struct{})
	var holdOnce sync.Once
	unhold := func() { holdOnce.Do(func() { close(hold) }) }
	defer unhold() // a failed check must not leave a handler blocking Close
	echo := func(_ context.Context, _ dot.ID, req Request) Response {
		switch req.Method {
		case "hold":
			<-hold
		case "keep":
			mu.Lock()
			kept[string(req.Body)] = req.Body
			mu.Unlock()
		case "slow":
			time.Sleep(time.Duration(len(req.Body)%5) * 200 * time.Microsecond)
		}
		return Response{Body: req.Body}
	}
	b.Register("b", echo)
	ctx := context.Background()

	// Retained bodies, one reused caller buffer, many later frames.
	const n = 300
	resps := make([][]byte, n)
	var buf []byte
	for i := 0; i < n; i++ {
		buf = append(buf[:0], lifetimeBody(i)...)
		resp, err := a.Send(ctx, "a", "b", Request{Method: "keep", Body: buf})
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = resp.Body
	}
	mu.Lock()
	for i := 0; i < n; i++ {
		want := lifetimeBody(i)
		if got, ok := kept[string(want)]; !ok || !bytes.Equal(got, want) {
			t.Fatalf("handler's retained body %d = %q (present %v), want %q", i, got, ok, want)
		}
		if !bytes.Equal(resps[i], want) {
			t.Fatalf("caller's response body %d = %q, want %q", i, resps[i], want)
		}
	}
	mu.Unlock()

	// Send's error paths, racing verified traffic on the same connection.
	// A peer that dies with requests in flight exercises the dead path.
	dying := NewMux("d", map[dot.ID]string{"d": "127.0.0.1:0"})
	if err := dying.Listen(); err != nil {
		t.Fatal(err)
	}
	defer dying.Close()
	dying.Register("d", echo)
	a.SetAddr("d", dying.Addr())

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	check := func(to dot.ID, method string, body []byte, timeout time.Duration) {
		cctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		resp, err := a.Send(cctx, "a", to, Request{Method: method, Body: body})
		if err == nil && !bytes.Equal(resp.Body, body) {
			errs <- fmt.Errorf("%s to %s: response %q for request %q", method, to, resp.Body, body)
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // verified echoes
			defer wg.Done()
			for i := 0; i < 150; i++ {
				body := lifetimeBody(g*1000 + i)
				resp, err := a.Send(ctx, "a", "b", Request{Method: "m", Body: body})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Body, body) {
					errs <- fmt.Errorf("cross-wired response %q for request %q", resp.Body, body)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) { // deadlines racing the responses
			defer wg.Done()
			for i := 0; i < 150; i++ {
				check("b", "slow", lifetimeBody(5000+g*1000+i), time.Duration(i%4)*300*time.Microsecond)
			}
		}(g)
	}
	wg.Add(1)
	go func() { // oversized frames
		defer wg.Done()
		huge := make([]byte, 1<<26)
		for i := 0; i < 2; i++ {
			if _, err := a.Send(ctx, "a", "b", Request{Method: "m", Body: huge}); err == nil {
				errs <- errors.New("oversized send succeeded")
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // requests in flight to a peer that dies
			defer wg.Done()
			for i := 0; i < 50; i++ {
				check("d", "slow", lifetimeBody(9000+g*100+i), time.Second)
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	if err := dying.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A request abandoned at its deadline leaves its reply channel to the
	// late response: the channel must never be recycled.
	a.mu.Lock()
	cb := a.conns["b"]
	a.mu.Unlock()
	hctx, cancel := context.WithCancel(ctx)
	sent := make(chan error, 1)
	go func() {
		_, err := a.Send(hctx, "a", "b", Request{Method: "hold"})
		sent <- err
	}()
	var abandoned chan muxResult
	eventually(t, func() bool {
		cb.mu.Lock()
		defer cb.mu.Unlock()
		for _, ch := range cb.pending {
			abandoned = ch
		}
		return abandoned != nil
	}, func() string { return "the held request never became pending" })
	cancel()
	if err := <-sent; !errors.Is(err, context.Canceled) {
		t.Fatalf("held request: err = %v, want context.Canceled", err)
	}
	unhold() // the late response is dropped on arrival
	// Answered requests leave recycled channels on the free list.
	for i := 0; i < 3; i++ {
		body := lifetimeBody(20000 + i)
		if resp, err := a.Send(ctx, "a", "b", Request{Method: "m", Body: body}); err != nil || !bytes.Equal(resp.Body, body) {
			t.Fatalf("send after the abandoned one: %q, %v; want %q", resp.Body, err, body)
		}
	}
	cb.mu.Lock()
	for _, ch := range cb.free {
		if ch == abandoned {
			t.Error("the abandoned request's reply channel was recycled")
		}
	}
	cb.mu.Unlock()

	// A channel on a free list has delivered its one value: it is empty,
	// listed once, and no pending request holds it.
	a.mu.Lock()
	conns := make([]*muxConn, 0, len(a.all))
	for c := range a.all {
		conns = append(conns, c)
	}
	a.mu.Unlock()
	recycled := 0
	for _, c := range conns {
		c.mu.Lock()
		held := make(map[chan muxResult]bool)
		for _, ch := range c.pending {
			held[ch] = true
		}
		seen := make(map[chan muxResult]bool)
		for _, ch := range c.free {
			switch {
			case len(ch) != 0:
				t.Errorf("free reply channel holds %d undelivered values", len(ch))
			case seen[ch]:
				t.Error("reply channel listed twice on the free list")
			case held[ch]:
				t.Error("free reply channel is still pending")
			}
			seen[ch] = true
		}
		recycled += len(c.free)
		c.mu.Unlock()
	}
	if recycled == 0 {
		t.Error("no reply channel was recycled")
	}

	// Every body retained before the stress is still intact.
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		want := lifetimeBody(i)
		if got := kept[string(want)]; !bytes.Equal(got, want) {
			t.Fatalf("after more traffic, retained body %d = %q, want %q", i, got, want)
		}
		if !bytes.Equal(resps[i], want) {
			t.Fatalf("after more traffic, response body %d = %q, want %q", i, resps[i], want)
		}
	}
}
