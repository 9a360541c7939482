package transport

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/dot"
)

// Mux is the multiplexed TCP transport: one long-lived connection per
// peer pair carrying many concurrent in-flight requests.
//
// Every message is a codec length frame whose payload starts with a kind
// byte:
//
//	hello:    kind=0, sender id        (first frame after dialing)
//	request:  kind=1, reqID, from, method, body
//	response: kind=2, reqID, err, body
//
// Responses are correlated to requests by reqID, so they may return out
// of order and a slow request never blocks the ones behind it. Each
// established connection runs two goroutines: a reader that dispatches
// inbound requests (one handler goroutine per request) and matches
// inbound responses against the pending table, and a writer that drains
// the outbound queue, coalescing every queued frame into a single
// buffer per flush — one kernel write carries as many frames as arrived
// while the previous flush was in flight (writev-style batching).
//
// The frame path allocates once per inbound frame: the reader reads
// through one buffered reader per connection (at most one read syscall
// per frame, one per coalesced flush when frames arrive together), and
// request and response bodies are decoded in place, aliasing that frame.
// Outbound frames are encoded into pooled writers that the writer loop
// returns once it has copied them, and each request's reply channel comes
// from a per-connection free list.
//
// Deadlines are per request, not per connection: a request whose context
// expires fails at the caller while the connection — and every other
// in-flight request on it — keeps going; the late response is dropped on
// arrival. Only transport-level failures (read/write errors, peer close)
// tear a connection down, failing its in-flight requests; the next Send
// redials, with exponential backoff after consecutive dial failures, and
// Reconnects counts every re-established peer connection.
//
// A dialed connection announces its owner with a hello frame; the
// acceptor registers it as its own outbound channel to that peer if it
// has none, so in steady state one TCP connection serves both directions
// of a peer pair.
type Mux struct {
	self dot.ID

	mu      sync.Mutex
	addrs   map[dot.ID]string
	conns   map[dot.ID]*muxConn      // outbound channel per peer
	all     map[*muxConn]struct{}    // every live conn incl. accepted duplicates
	hs      map[net.Conn]struct{}    // accepted conns still mid-handshake
	dial    map[dot.ID]*dialState    // reconnect backoff per peer
	dialing map[dot.ID]chan struct{} // single-flight guard: one dial per peer
	ever    map[dot.ID]bool          // peers we have had a connection with
	rng     *rand.Rand               // dial-backoff jitter (under mu)
	h       Handler
	ln      net.Listener

	done  chan struct{}
	close sync.Once
	wg    sync.WaitGroup

	bytesSent  atomic.Uint64
	msgsSent   atomic.Uint64
	flushes    atomic.Uint64
	reconnects atomic.Uint64
}

// Frame kind bytes.
const (
	muxKindHello byte = iota
	muxKindRequest
	muxKindResponse
)

const (
	// muxDialTimeout bounds one connection attempt.
	muxDialTimeout = 5 * time.Second
	// muxBackoffBase/Max shape the reconnect backoff: after k consecutive
	// dial failures to a peer, further Sends fail fast (no dial) until
	// base<<(k-1) has elapsed, capped at max.
	muxBackoffBase = 10 * time.Millisecond
	muxBackoffMax  = 2 * time.Second
	// muxQueueFrames bounds each connection's outbound queue; a full queue
	// back-pressures senders and handler goroutines.
	muxQueueFrames = 256
	// muxFlushBytes caps how many coalesced bytes one flush accumulates
	// before handing them to the kernel.
	muxFlushBytes = 256 << 10
	// muxHelloTimeout bounds how long an accepted connection may take to
	// identify itself before it is dropped.
	muxHelloTimeout = 5 * time.Second
	// muxFreeReplies caps each connection's free list of reply channels;
	// past it, a channel that has delivered its value is left to the GC.
	muxFreeReplies = 32
	// muxMaxMethods caps each connection's method-name intern table;
	// names past it are allocated per frame.
	muxMaxMethods = 64
)

type dialState struct {
	fails int
	until time.Time
}

// muxResult is what a pending request resolves to: a response, or the
// connection-level error that killed it.
type muxResult struct {
	resp Response
	err  error
}

// muxConn is one established connection (dialed or accepted).
type muxConn struct {
	owner *Mux
	peer  dot.ID
	nc    net.Conn
	br    *bufio.Reader // nc's one reader, from the hello on
	wq    chan *codec.Writer

	// methods interns inbound method names; only readLoop touches it.
	methods map[string]string

	mu      sync.Mutex
	pending map[uint64]chan muxResult
	// free holds reply channels that delivered their one value to Send;
	// nothing else holds them, so register hands them out again.
	free    []chan muxResult
	nextReq uint64
	failed  bool
	err     error
	dead    chan struct{}
}

// NewMux creates a multiplexed transport for node self. addrs maps node
// ids (including self, when this transport will Listen) to host:port.
func NewMux(self dot.ID, addrs map[dot.ID]string) *Mux {
	cp := make(map[dot.ID]string, len(addrs))
	for id, a := range addrs {
		cp[id] = a
	}
	return &Mux{
		self:    self,
		addrs:   cp,
		conns:   make(map[dot.ID]*muxConn),
		all:     make(map[*muxConn]struct{}),
		hs:      make(map[net.Conn]struct{}),
		dial:    make(map[dot.ID]*dialState),
		dialing: make(map[dot.ID]chan struct{}),
		ever:    make(map[dot.ID]bool),
		// Seeded from the node identity: deterministic per process, yet
		// different across the fleet — exactly what jitter needs.
		rng:  rand.New(rand.NewSource(int64(fnvHash(string(self))))),
		done: make(chan struct{}),
	}
}

// fnvHash is a tiny FNV-1a for seeding the jitter RNG from an id.
func fnvHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Register installs the handler served to inbound requests. Ids other
// than self are ignored (one process, one identity).
func (t *Mux) Register(id dot.ID, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == t.self {
		t.h = h
	}
}

// Listen binds the node's address and serves connections until Close.
func (t *Mux) Listen() error {
	t.mu.Lock()
	addr, ok := t.addrs[t.self]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("transport: no address for self %q", t.self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.mu.Lock()
	t.ln = ln
	t.addrs[t.self] = ln.Addr().String()
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address (after Listen).
func (t *Mux) Addr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[t.self]
}

// SetAddr records or updates a peer's dialable address.
func (t *Mux) SetAddr(id dot.ID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[id] = addr
}

// Peers returns the current id→address map (a copy), including self.
func (t *Mux) Peers() map[dot.ID]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[dot.ID]string, len(t.addrs))
	for id, a := range t.addrs {
		out[id] = a
	}
	return out
}

// Deregister forgets a peer: its address and backoff state are dropped
// and every request this transport has in flight to it fails. The
// connection itself stays up until the peer or Close tears it down, so a
// response to a request the peer sent still reaches it — member.leave
// deregisters the leaver from inside the handler answering it.
// Deregistering self clears the handler.
func (t *Mux) Deregister(id dot.ID) {
	t.mu.Lock()
	if id == t.self {
		t.h = nil
		t.mu.Unlock()
		return
	}
	delete(t.addrs, id)
	delete(t.dial, id)
	c := t.conns[id]
	delete(t.conns, id)
	t.mu.Unlock()
	if c != nil {
		c.abandon(fmt.Errorf("%w: peer %s deregistered", ErrUnreachable, id))
	}
}

// BytesSent returns the cumulative framed bytes this transport wrote
// (payload plus codec.FrameOverhead per frame) — the wire-traffic
// counter the experiments and the benchmark read.
func (t *Mux) BytesSent() uint64 { return t.bytesSent.Load() }

// MessagesSent returns the number of frames this transport wrote
// (requests and responses it originated, plus one hello per dial).
func (t *Mux) MessagesSent() uint64 { return t.msgsSent.Load() }

// Flushes returns how many kernel writes carried those frames; frames ÷
// flushes is the coalescing factor of the writer loop.
func (t *Mux) Flushes() uint64 { return t.flushes.Load() }

// Reconnects counts connections re-established to peers this transport
// had already been connected to — conn churn, paid only on real
// connection failures.
func (t *Mux) Reconnects() uint64 { return t.reconnects.Load() }

// ---------------------------------------------------------------------------
// Connection establishment.
// ---------------------------------------------------------------------------

// newConn wraps nc. br must be the reader that read the hello, if any: a
// dialer may send requests right behind it, already in br's buffer.
func (t *Mux) newConn(peer dot.ID, nc net.Conn, br *bufio.Reader) *muxConn {
	return &muxConn{
		owner:   t,
		peer:    peer,
		nc:      nc,
		br:      br,
		wq:      make(chan *codec.Writer, muxQueueFrames),
		methods: make(map[string]string),
		pending: make(map[uint64]chan muxResult),
		dead:    make(chan struct{}),
	}
}

// startConn brings an accepted connection into service: it joins the
// live set, becomes the outbound channel to its peer if none exists (one
// connection per peer pair), and starts its loops. Callers must hold no
// locks.
func (t *Mux) startConn(c *muxConn) {
	t.mu.Lock()
	select {
	case <-t.done:
		t.mu.Unlock()
		// Shutdown began before the loops started: fail the conn so any
		// caller already holding it gets an immediate error instead of
		// waiting out its context on a queue nobody drains.
		c.fail(ErrClosed)
		return
	default:
	}
	t.all[c] = struct{}{}
	if t.conns[c.peer] == nil {
		t.conns[c.peer] = c
		t.ever[c.peer] = true
	}
	t.wg.Add(2)
	t.mu.Unlock()
	go c.readLoop()
	go c.writeLoop()
}

// conn returns the established connection for `to`, dialing one if
// needed. Dials are single-flighted per peer: concurrent Sends to a
// not-yet-connected peer wait for the one in-flight dial instead of
// racing their own (and leaking never-adopted duplicate connections).
func (t *Mux) conn(ctx context.Context, to dot.ID) (*muxConn, error) {
	for {
		t.mu.Lock()
		if c := t.conns[to]; c != nil {
			t.mu.Unlock()
			return c, nil
		}
		addr, ok := t.addrs[to]
		if !ok {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: no address for %q", ErrUnreachable, to)
		}
		if ds := t.dial[to]; ds != nil && time.Now().Before(ds.until) {
			fails := ds.fails // a failing dial may bump it once we unlock
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: dial backoff for %q (%d consecutive failures)", ErrUnreachable, to, fails)
		}
		if ch := t.dialing[to]; ch != nil {
			t.mu.Unlock()
			select {
			case <-ch:
				continue // re-check: an adopted conn or a recorded backoff
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: awaiting dial to %q: %v", ErrUnreachable, to, ctx.Err())
			case <-t.done:
				return nil, ErrClosed
			}
		}
		ch := make(chan struct{})
		t.dialing[to] = ch
		t.mu.Unlock()

		c, err := t.dialPeer(ctx, to, addr)

		t.mu.Lock()
		delete(t.dialing, to)
		close(ch)
		t.mu.Unlock()
		return c, err
	}
}

// dialPeer dials addr, sends the hello, registers the connection and
// starts its loops; on failure it records the reconnect backoff. Called
// with the single-flight slot held.
func (t *Mux) dialPeer(ctx context.Context, to dot.ID, addr string) (*muxConn, error) {
	d := net.Dialer{Timeout: muxDialTimeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.mu.Lock()
		ds := t.dial[to]
		if ds == nil {
			ds = &dialState{}
			t.dial[to] = ds
		}
		ds.fails++
		backoff := muxBackoffBase << min(ds.fails-1, 20)
		if backoff > muxBackoffMax || backoff <= 0 {
			backoff = muxBackoffMax
		}
		// Equal jitter — uniform in [backoff/2, backoff] — so a fleet of
		// peers that lost the same node does not redial it in lockstep
		// when their identical windows expire together (retry storms are
		// how a node struggling back from a partition gets knocked over).
		backoff = backoff/2 + time.Duration(t.rng.Int63n(int64(backoff/2)+1))
		ds.until = time.Now().Add(backoff)
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnreachable, addr, err)
	}
	c := t.newConn(to, nc, bufio.NewReader(nc))
	// The hello must be the first frame on the wire; the queue is fresh,
	// so this cannot block.
	w := codec.GetPooledWriter()
	w.Byte(muxKindHello)
	w.String(string(t.self))
	c.wq <- w

	t.mu.Lock()
	select {
	case <-t.done:
		t.mu.Unlock()
		c.fail(ErrClosed)
		return nil, ErrClosed
	default:
	}
	if existing := t.conns[to]; existing != nil {
		// An accepted connection from this peer was adopted while we
		// dialed; use it and drop ours (never started, nothing pending).
		t.mu.Unlock()
		c.fail(fmt.Errorf("transport: duplicate connection to %s", to))
		return existing, nil
	}
	delete(t.dial, to)
	reconnect := t.ever[to]
	t.ever[to] = true
	t.conns[to] = c
	t.all[c] = struct{}{}
	t.wg.Add(2)
	t.mu.Unlock()
	if reconnect {
		t.reconnects.Add(1)
	}
	go c.readLoop()
	go c.writeLoop()
	return c, nil
}

func (t *Mux) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.wg.Add(1)
		go t.handshake(nc)
	}
}

// handshake reads the hello frame off an accepted connection and brings
// it into service.
func (t *Mux) handshake(nc net.Conn) {
	defer t.wg.Done()
	// Track the conn so Close can cut a handshake short instead of
	// waiting out the hello deadline.
	t.mu.Lock()
	select {
	case <-t.done:
		t.mu.Unlock()
		nc.Close()
		return
	default:
	}
	t.hs[nc] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.hs, nc)
		t.mu.Unlock()
	}()
	_ = nc.SetReadDeadline(time.Now().Add(muxHelloTimeout))
	br := bufio.NewReader(nc)
	frame, err := codec.ReadFrame(br)
	if err != nil {
		nc.Close()
		return
	}
	_ = nc.SetReadDeadline(time.Time{})
	if len(frame) < 1 || frame[0] != muxKindHello {
		nc.Close()
		return
	}
	r := codec.NewReader(frame[1:])
	peer := dot.ID(r.String())
	r.ExpectEOF()
	if r.Err() != nil || peer == "" {
		nc.Close()
		return
	}
	t.startConn(t.newConn(peer, nc, br))
}

// ---------------------------------------------------------------------------
// Connection loops.
// ---------------------------------------------------------------------------

// fail tears the connection down once: it records err, closes the socket,
// resolves every pending request with err, and removes the conn from the
// owner's tables.
func (c *muxConn) fail(err error) {
	c.mu.Lock()
	if c.failed {
		c.mu.Unlock()
		return
	}
	c.failed = true
	if err == nil {
		err = ErrClosed
	}
	c.err = err
	pend := c.pending
	c.pending = nil
	close(c.dead)
	c.mu.Unlock()

	c.nc.Close()
	for _, ch := range pend {
		ch <- muxResult{err: err} // buffered 1, one send per entry
	}
	t := c.owner
	t.mu.Lock()
	delete(t.all, c)
	if t.conns[c.peer] == c {
		delete(t.conns, c.peer)
	}
	t.mu.Unlock()
}

// abandon resolves every request this side has pending on the connection
// with err, leaving the socket and its loops running.
func (c *muxConn) abandon(err error) {
	c.mu.Lock()
	if c.failed {
		c.mu.Unlock()
		return
	}
	pend := c.pending
	c.pending = make(map[uint64]chan muxResult)
	c.mu.Unlock()
	for _, ch := range pend {
		ch <- muxResult{err: err} // buffered 1, one send per entry
	}
}

func (c *muxConn) readLoop() {
	defer c.owner.wg.Done()
	for {
		frame, err := codec.ReadFrame(c.br)
		if err != nil {
			c.fail(fmt.Errorf("transport: recv from %s: %w", c.peer, err))
			return
		}
		if len(frame) < 1 {
			c.fail(fmt.Errorf("transport: empty frame from %s", c.peer))
			return
		}
		// The frame is never reused, so bodies alias it instead of being
		// copied out, and a handler may retain req.Body.
		r := codec.NewReader(frame[1:])
		switch frame[0] {
		case muxKindRequest:
			reqID := r.Uvarint()
			from := r.ID()
			method := c.method(r.BytesFieldView())
			body := r.BytesFieldView()
			r.ExpectEOF()
			if r.Err() != nil {
				c.fail(fmt.Errorf("transport: corrupt request from %s: %w", c.peer, r.Err()))
				return
			}
			c.owner.mu.Lock()
			h := c.owner.h
			c.owner.mu.Unlock()
			// One goroutine per request is what lets a slow request share
			// the connection with fast ones. The readLoop holds a WaitGroup
			// slot while it runs, so this Add cannot race Close's Wait.
			c.owner.wg.Add(1)
			go c.serve(h, reqID, from, Request{Method: method, Body: body})
		case muxKindResponse:
			reqID := r.Uvarint()
			errStr := r.String()
			body := r.BytesFieldView()
			r.ExpectEOF()
			if r.Err() != nil {
				c.fail(fmt.Errorf("transport: corrupt response from %s: %w", c.peer, r.Err()))
				return
			}
			c.mu.Lock()
			ch := c.pending[reqID]
			delete(c.pending, reqID)
			c.mu.Unlock()
			if ch != nil {
				ch <- muxResult{resp: Response{Err: errStr, Body: body}}
			}
			// No pending entry: the request timed out and was abandoned;
			// drop the late response.
		case muxKindHello:
			// Tolerated mid-stream (idempotent identity announcement).
		default:
			c.fail(fmt.Errorf("transport: unknown frame kind %d from %s", frame[0], c.peer))
			return
		}
	}
}

// method returns the interned method name spelled by b, so steady-state
// requests allocate no method string.
func (c *muxConn) method(b []byte) string {
	if m, ok := c.methods[string(b)]; ok {
		return m
	}
	m := string(b)
	if len(c.methods) < muxMaxMethods {
		c.methods[m] = m
	}
	return m
}

// serve runs the handler for one inbound request and queues its response.
func (c *muxConn) serve(h Handler, reqID uint64, from dot.ID, req Request) {
	defer c.owner.wg.Done()
	var resp Response
	if h == nil {
		resp = Response{Err: "no handler registered"}
	} else {
		resp = h(context.Background(), from, req)
	}
	w := codec.GetPooledWriter()
	w.Byte(muxKindResponse)
	w.Uvarint(reqID)
	w.String(resp.Err)
	w.BytesField(resp.Body)
	if w.Len() > codec.MaxFrameBytes {
		// The response cannot cross the wire; report that to the
		// requester instead of killing the connection.
		w.Reset()
		w.Byte(muxKindResponse)
		w.Uvarint(reqID)
		w.String("response exceeds frame limit")
		w.BytesField(nil)
	}
	select {
	case c.wq <- w:
	case <-c.dead: // conn died; response is moot
		codec.PutPooledWriter(w)
	}
}

// writeLoop drains the outbound queue. Every frame queued while the
// previous flush was on the wire is coalesced into one buffer and handed
// to the kernel in a single write.
func (c *muxConn) writeLoop() {
	defer c.owner.wg.Done()
	var buf []byte
	for {
		var first *codec.Writer
		select {
		case first = <-c.wq:
		case <-c.dead:
			return
		}
		buf = buf[:0]
		var err error
		buf, err = appendFrame(buf, first)
		frames := uint64(1)
		for err == nil && len(buf) < muxFlushBytes {
			select {
			case w := <-c.wq:
				buf, err = appendFrame(buf, w)
				frames++
			default:
				goto flush
			}
		}
	flush:
		if err == nil {
			_, err = c.nc.Write(buf)
		}
		if err != nil {
			c.fail(fmt.Errorf("transport: send to %s: %w", c.peer, err))
			return
		}
		c.owner.msgsSent.Add(frames)
		c.owner.bytesSent.Add(uint64(len(buf)))
		c.owner.flushes.Add(1)
	}
}

// appendFrame frames w's bytes onto buf and returns w to the pool.
func appendFrame(buf []byte, w *codec.Writer) ([]byte, error) {
	buf, err := codec.AppendFrame(buf, w.Bytes())
	codec.PutPooledWriter(w)
	return buf, err
}

// ---------------------------------------------------------------------------
// Send.
// ---------------------------------------------------------------------------

// register allocates a request id and its result channel, reusing one
// from the free list when it can. Every sender on a pending channel
// (readLoop, abandon, fail) removes it from pending under c.mu before
// sending, so each channel receives exactly one value.
func (c *muxConn) register() (uint64, chan muxResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		return 0, nil, c.err
	}
	c.nextReq++
	var ch chan muxResult
	if n := len(c.free); n > 0 {
		ch = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		ch = make(chan muxResult, 1)
	}
	c.pending[c.nextReq] = ch
	return c.nextReq, ch, nil
}

// release puts back a reply channel Send has received its one value
// from: no sender holds it any more. A channel whose value was never
// received (an abandoned request) is never released.
func (c *muxConn) release(ch chan muxResult) {
	c.mu.Lock()
	if len(c.free) < muxFreeReplies {
		c.free = append(c.free, ch)
	}
	c.mu.Unlock()
}

func (c *muxConn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Send delivers req to `to` over the shared connection and waits for the
// matching response. The context bounds only this request: on expiry the
// request fails but the connection (and other in-flight requests) live
// on. req.Body is copied into the outbound frame, so the caller may reuse
// it once Send returns.
func (t *Mux) Send(ctx context.Context, from, to dot.ID, req Request) (Response, error) {
	select {
	case <-t.done:
		return Response{}, ErrClosed
	default:
	}
	c, err := t.conn(ctx, to)
	if err != nil {
		return Response{}, err
	}
	reqID, ch, err := c.register()
	if err != nil {
		return Response{}, fmt.Errorf("transport: send to %s: %w", to, err)
	}
	w := codec.GetPooledWriter()
	w.Byte(muxKindRequest)
	w.Uvarint(reqID)
	w.String(string(from))
	w.String(req.Method)
	w.BytesField(req.Body)
	// Reject oversized frames here, where only this request fails; an
	// error surfacing inside the shared writer loop would tear down the
	// connection and every other in-flight request with it.
	if n := w.Len(); n > codec.MaxFrameBytes {
		codec.PutPooledWriter(w)
		c.unregister(reqID)
		return Response{}, fmt.Errorf("transport: send to %s: frame of %d bytes exceeds limit", to, n)
	}
	// Once queued, w belongs to the writer loop, which returns it to the
	// pool after copying it into a flush.
	select {
	case c.wq <- w:
	case <-c.dead:
		codec.PutPooledWriter(w)
		c.unregister(reqID)
		return Response{}, fmt.Errorf("transport: send to %s: %w", to, c.err)
	case <-ctx.Done():
		codec.PutPooledWriter(w)
		c.unregister(reqID)
		return Response{}, fmt.Errorf("transport: send to %s: %w", to, ctx.Err())
	}
	select {
	case res := <-ch:
		c.release(ch)
		if res.err != nil {
			return Response{}, fmt.Errorf("transport: send to %s: %w", to, res.err)
		}
		return res.resp, nil
	case <-ctx.Done():
		c.unregister(reqID)
		// A response may have raced the deadline; prefer it.
		select {
		case res := <-ch:
			c.release(ch)
			if res.err == nil {
				return res.resp, nil
			}
		default:
		}
		return Response{}, fmt.Errorf("transport: send to %s: %w", to, ctx.Err())
	case <-t.done:
		c.unregister(reqID)
		return Response{}, ErrClosed
	}
}

// Close stops the listener, fails every connection (resolving in-flight
// requests with errors) and waits for all goroutines.
func (t *Mux) Close() error {
	var err error
	t.close.Do(func() {
		close(t.done)
		t.mu.Lock()
		if t.ln != nil {
			err = t.ln.Close()
		}
		conns := make([]*muxConn, 0, len(t.all))
		for c := range t.all {
			conns = append(conns, c)
		}
		for nc := range t.hs {
			nc.Close()
		}
		t.mu.Unlock()
		for _, c := range conns {
			c.fail(ErrClosed)
		}
		t.wg.Wait()
	})
	return err
}

var (
	_ Transport = (*Mux)(nil)
	_ AddrBook  = (*Mux)(nil)
)
