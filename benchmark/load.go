package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
	"repro/internal/transport"
)

// maxOutstanding caps the open loop's in-flight requests; an op due while
// the cap is reached is dropped and counted failed.
const maxOutstanding = 256

// writerIDs names the logical writers a put request carries.
var writerIDs = func() (ids [256]dot.ID) {
	for i := range ids {
		ids[i] = dot.ID(fmt.Sprintf("w%02d", i))
	}
	return
}()

// session is what a writer remembers of a key: the context of the last reply
// it got for it, and the write ids that reply showed.
type session struct {
	ctx  core.Context
	seen []uint32
}

// load drives one deployment with one stream and keeps what the checker and
// the metrics need.
type load struct {
	d     *deployment
	st    *stream
	epoch time.Time // sample completion times count from here

	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]

	// tr, when tracing, records the client-op root spans.
	tr *tracer
	// late holds the open loop's generator lateness per op of the measured
	// window, ns.
	late []int64
}

func (l *load) noteErr(err error) {
	l.failed.Add(1)
	msg := err.Error()
	l.firstErr.CompareAndSwap(nil, &msg)
}

// do runs one op on client c and feeds the checker log. pass is how many
// times c's share of the stream has wrapped. A non-zero from is the time the
// op was due (open loop); latency counts from it. record says whether the
// latency is kept (measured window) or not (warm-up).
func (l *load) do(c *client, o op, pass uint32, from time.Time, record bool) {
	l.attempted.Add(1)
	d := l.d
	key := l.st.keyNames[o.key]
	coord, _ := d.ring.Coordinator(key)
	sk := uint64(o.writer)<<32 | uint64(o.key)

	var (
		req      transport.Request
		id       uint32
		presents []uint32 // ids the presented context covers
	)
	t0 := time.Now()
	if from.IsZero() {
		from = t0
	}
	if o.kind == opGet {
		req = transport.Request{Method: node.MethodGet, Body: node.EncodeGetRequest(d.mech, key, node.ReadOptions{NotFoundOK: true})}
	} else {
		id = o.id + pass*l.st.writes
		var wctx core.Context
		if o.kind == opPut {
			c.mu.Lock()
			if s := c.sessions[sk]; s != nil {
				wctx, presents = s.ctx, s.seen
			}
			c.mu.Unlock()
		}
		req = transport.Request{Method: node.MethodPut, Body: node.EncodePutRequest(d.mech, key,
			valueFor(id, d.spec.valueBytes), writerIDs[o.writer], node.WriteOptions{Context: wctx})}
	}

	rr, err := exchange(d.mech, c.tr, c.id, coord, req)
	end := time.Now()
	l.tr.clientOp(c.id, req.Method, t0, end)

	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		l.noteErr(fmt.Errorf("%s %s: %w", req.Method, key, err))
		if id != 0 {
			// A failed put may still have been applied.
			c.log.doubtful = append(c.log.doubtful, wrec{o.key, id})
			for _, s := range presents {
				c.log.doubtful = append(c.log.doubtful, wrec{o.key, s})
			}
		}
		return
	}
	if record {
		c.rec = append(c.rec, sample{end: int64(end.Sub(l.epoch)), lat: int64(end.Sub(from)), put: o.kind != opGet})
	}
	if id != 0 {
		c.log.acked = append(c.log.acked, wrec{o.key, id})
		for _, s := range presents {
			c.log.covered = append(c.log.covered, wrec{o.key, s})
		}
	}
	if o.kind == opBlindPut {
		return // a fresh client: its reply starts no session
	}
	s := c.sessions[sk]
	if s == nil {
		s = &session{}
		c.sessions[sk] = s
	}
	s.ctx = rr.Ctx
	// A fresh slice: an op in flight may still hold the old one.
	s.seen = idsOf(rr.Values, &c.log.garbled)
}

// exchange sends one client request and decodes the reply, the way
// `dvvstore get|put` does, bounded by the RPC timeout.
func exchange(mech core.Mechanism, tr transport.Transport, from, to dot.ID, req transport.Request) (core.ReadResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	resp, err := tr.Send(ctx, from, to, req)
	if err == nil {
		err = transport.AppError(resp)
	}
	if err != nil {
		return core.ReadResult{}, err
	}
	return node.DecodeReadResult(mech, resp.Body)
}

// outcome copies the op counts and the first error into a result.
func (l *load) outcome(res *result) {
	res.Attempted, res.Failed = l.attempted.Load(), l.failed.Load()
	if e := l.firstErr.Load(); e != nil {
		res.FirstError = *e
	}
}

// cursor walks one client's share of the stream, wrapping when it runs out.
type cursor struct {
	ops  []op
	pos  int
	pass uint32
}

func (cu *cursor) next() (op, uint32) {
	if cu.pos == len(cu.ops) {
		cu.pos = 0
		cu.pass++
	}
	o := cu.ops[cu.pos]
	cu.pos++
	return o, cu.pass
}

// split deals the stream to nclients cursors by writer id, so one writer's
// ops stay in order on one connection.
func split(st *stream, nclients int) []*cursor {
	cs := make([]*cursor, nclients)
	for i := range cs {
		cs[i] = &cursor{ops: make([]op, 0, len(st.ops)/nclients+1)}
	}
	for _, o := range st.ops {
		c := cs[int(o.writer)%nclients]
		c.ops = append(c.ops, o)
	}
	return cs
}

// closedLoop runs clients[i] over cursors[i] concurrently, each sending its
// next op when the previous one completes, until stop says so.
// It returns the common start and the time from it to the last completion.
func (l *load) closedLoop(clients []*client, cursors []*cursor, record bool, stop func(done int, since time.Duration) bool) (time.Time, time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, cu *cursor) {
			defer wg.Done()
			for done := 0; !stop(done, time.Since(start)); done++ {
				o, pass := cu.next()
				l.do(c, o, pass, time.Time{}, record)
			}
		}(c, cursors[i])
	}
	wg.Wait()
	return start, time.Since(start)
}

// waitUntil blocks until t. time.Sleep will not do: an idle Go runtime rounds
// short timer waits up to a millisecond, several intervals at thousands of
// requests per second. A nanosleep system call is precise to tens of
// microseconds, and while the thread is in it the runtime hands its
// processor to other goroutines.
func waitUntil(t time.Time) {
	if wait := time.Until(t); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
}

// openLoop issues ops at a fixed rate from one scheduler goroutine, each on
// its own goroutine so the mux carries the in-flight set, and times every op
// from when it was due. It returns the first due time and the time from it to
// the last completion.
func (l *load) openLoop(ops []op, rate int, record bool) (time.Time, time.Duration) {
	var (
		wg          sync.WaitGroup
		outstanding atomic.Int64
		interval    = time.Second / time.Duration(rate)
		start       = time.Now()
	)
	for i, o := range ops {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		if record {
			l.late = append(l.late, int64(time.Since(due)))
		}
		if outstanding.Load() >= maxOutstanding {
			l.attempted.Add(1)
			l.noteErr(fmt.Errorf("open loop: %d requests outstanding, op dropped", maxOutstanding))
			continue
		}
		outstanding.Add(1)
		wg.Add(1)
		c := l.d.clients[int(o.writer)%len(l.d.clients)]
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			l.do(c, o, 0, due, record)
		}()
	}
	wg.Wait()
	return start, time.Since(start)
}
