package transport

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dot"
)

// LinkFaults is the fault rule for one directed peer pair. The zero value
// is a clean link. Rules apply independently to the request leg (from→to)
// and the response leg (to→from): a message on a leg is first checked
// against Sever, then rolled against DropRate, then delayed by
// Delay + PerByte×payload + uniform[0, Reorder), floored at zero. Because
// each message samples its own extra delay, two messages sent back-to-back
// on the same link can overtake each other — that is the bounded-reorder
// model (bound = Reorder).
type LinkFaults struct {
	// Sever drops every message on the leg (one-directional partition).
	Sever bool
	// DropRate is the probability in [0,1] a message is silently lost.
	DropRate float64
	// DupRate is the probability a request is delivered twice (the
	// duplicate's response is discarded). Only request legs duplicate.
	DupRate float64
	// Delay is a fixed extra one-way delay applied to every message.
	Delay time.Duration
	// PerByte adds this much delay per payload byte (the request's method
	// and body, or the response's body): the term that turns metadata
	// bloat into request latency in the C3 experiment.
	PerByte time.Duration
	// Reorder adds uniform[0, Reorder) random delay per message, which
	// lets later messages overtake earlier ones by up to Reorder.
	Reorder time.Duration
}

// clean reports whether the rule does nothing.
func (f LinkFaults) clean() bool {
	return !f.Sever && f.DropRate == 0 && f.DupRate == 0 && f.Delay == 0 && f.PerByte == 0 && f.Reorder == 0
}

// ChaosStats counts fault injections, in the spirit of the Meter
// counters: the nemesis scheduler asserts its timeline actually fired.
type ChaosStats struct {
	// Severed counts messages dropped by a one-way partition.
	Severed uint64
	// Dropped counts messages lost to a DropRate roll.
	Dropped uint64
	// Duplicated counts requests delivered a second time.
	Duplicated uint64
	// Delayed counts messages that slept a nonzero injected delay.
	Delayed uint64
}

// Chaos wraps any Transport and applies per-peer-pair fault rules —
// sever, probabilistic drop/duplication, fixed and per-byte delay and
// bounded reorder — on both legs of every Send. It is the only place
// faults and latency are injected: the nemesis, session and C3
// experiments and the failure tests wrap a Loopback with it, and it
// wraps a Mux just the same. The wrapper sits between the node and the
// wire, so faults hit requests before they are written and responses
// before they are returned; a dropped message fails its Send at once
// rather than costing a timeout. The RNG is seeded, so a fault schedule
// is reproducible.
type Chaos struct {
	inner Transport

	mu    sync.Mutex
	rng   *rand.Rand
	links map[[2]dot.ID]LinkFaults
	def   LinkFaults
	stats ChaosStats
}

// NewChaos wraps inner with a clean (no-fault) rule set.
func NewChaos(inner Transport, seed int64) *Chaos {
	return &Chaos{
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[[2]dot.ID]LinkFaults),
	}
}

// SetDefault installs the rule applied to every directed pair without an
// explicit SetLink rule.
func (c *Chaos) SetDefault(f LinkFaults) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.def = f
}

// SetLink installs the rule for the directed pair from→to, replacing any
// previous rule for that direction.
func (c *Chaos) SetLink(from, to dot.ID, f LinkFaults) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.clean() {
		delete(c.links, [2]dot.ID{from, to})
		return
	}
	c.links[[2]dot.ID{from, to}] = f
}

// PartitionOneWay severs the directed leg a→b, keeping any other faults
// already set on it.
func (c *Chaos) PartitionOneWay(a, b dot.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.link(a, b)
	f.Sever = true
	c.links[[2]dot.ID{a, b}] = f
}

// Partition severs both directions between a and b.
func (c *Chaos) Partition(a, b dot.ID) {
	c.PartitionOneWay(a, b)
	c.PartitionOneWay(b, a)
}

// Heal clears the Sever flag in both directions between a and b, keeping
// any probabilistic faults on those links.
func (c *Chaos) Heal(a, b dot.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range [][2]dot.ID{{a, b}, {b, a}} {
		f, ok := c.links[k]
		if !ok {
			continue
		}
		f.Sever = false
		if f.clean() {
			delete(c.links, k)
		} else {
			c.links[k] = f
		}
	}
}

// HealAll removes every per-link rule and the default rule: the network
// is clean afterwards.
func (c *Chaos) HealAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.links = make(map[[2]dot.ID]LinkFaults)
	c.def = LinkFaults{}
}

// Stats returns a snapshot of the fault-injection counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// link resolves the rule for from→to under c.mu.
func (c *Chaos) link(from, to dot.ID) LinkFaults {
	if f, ok := c.links[[2]dot.ID{from, to}]; ok {
		return f
	}
	return c.def
}

// admit rolls the fault dice for one directed message of payload bytes.
// It returns (dup, delay, nil) when the message goes through — dup only
// ever true on request legs — or ErrUnreachable when severed or dropped.
func (c *Chaos) admit(from, to dot.ID, payload int, isRequest bool) (bool, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.link(from, to)
	if f.Sever {
		c.stats.Severed++
		return false, 0, ErrUnreachable
	}
	if f.DropRate > 0 && c.rng.Float64() < f.DropRate {
		c.stats.Dropped++
		return false, 0, ErrUnreachable
	}
	delay := f.Delay + time.Duration(payload)*f.PerByte
	if f.Reorder > 0 {
		delay += time.Duration(c.rng.Int63n(int64(f.Reorder)))
	}
	if delay > 0 {
		c.stats.Delayed++
	} else {
		delay = 0 // a negative Delay (Base − Jitter in C3) means none
	}
	dup := false
	if isRequest && f.DupRate > 0 && c.rng.Float64() < f.DupRate {
		c.stats.Duplicated++
		dup = true
	}
	return dup, delay, nil
}

// sleep waits d respecting ctx.
func (c *Chaos) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Send applies the from→to rule to the request leg, forwards on the inner
// transport, then applies the to→from rule to the response leg. A
// duplicated request is re-sent concurrently and its response discarded —
// receivers must be idempotent, which is exactly what the nemesis
// experiments verify end to end.
func (c *Chaos) Send(ctx context.Context, from, to dot.ID, req Request) (Response, error) {
	dup, d1, err := c.admit(from, to, len(req.Method)+len(req.Body), true)
	if err != nil {
		return Response{}, err
	}
	if err := c.sleep(ctx, d1); err != nil {
		return Response{}, err
	}
	if dup {
		// The request body is only borrowed from the caller: senders
		// reuse their encode buffers once Send returns, and the duplicate
		// can still be in flight then — it must own its bytes.
		dupReq := Request{Method: req.Method, Body: append([]byte(nil), req.Body...)}
		go func() {
			// The duplicate shares the caller's ctx: it dies with the
			// original call, which bounds its lifetime without inventing
			// a timeout the caller never chose.
			_, _ = c.inner.Send(ctx, from, to, dupReq)
		}()
	}
	resp, err := c.inner.Send(ctx, from, to, req)
	if err != nil {
		return Response{}, err
	}
	_, d2, err := c.admit(to, from, len(resp.Body), false)
	if err != nil {
		return Response{}, err
	}
	if err := c.sleep(ctx, d2); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// Register installs a handler on the inner transport.
func (c *Chaos) Register(id dot.ID, h Handler) { c.inner.Register(id, h) }

// Deregister removes a handler from the inner transport.
func (c *Chaos) Deregister(id dot.ID) { c.inner.Deregister(id) }

// Close closes the inner transport.
func (c *Chaos) Close() error { return c.inner.Close() }

// SetAddr delegates to the inner transport's address book, if it has one.
func (c *Chaos) SetAddr(id dot.ID, addr string) {
	if ab, ok := c.inner.(AddrBook); ok {
		ab.SetAddr(id, addr)
	}
}

// Addr delegates to the inner transport's address book.
func (c *Chaos) Addr() string {
	if ab, ok := c.inner.(AddrBook); ok {
		return ab.Addr()
	}
	return ""
}

// Peers delegates to the inner transport's address book.
func (c *Chaos) Peers() map[dot.ID]string {
	if ab, ok := c.inner.(AddrBook); ok {
		return ab.Peers()
	}
	return nil
}

// BytesSent delegates to the inner transport's meter.
func (c *Chaos) BytesSent() uint64 {
	if m, ok := c.inner.(Meter); ok {
		return m.BytesSent()
	}
	return 0
}

// MessagesSent delegates to the inner transport's meter.
func (c *Chaos) MessagesSent() uint64 {
	if m, ok := c.inner.(Meter); ok {
		return m.MessagesSent()
	}
	return 0
}

var (
	_ Transport = (*Chaos)(nil)
	_ AddrBook  = (*Chaos)(nil)
	_ Meter     = (*Chaos)(nil)
)
