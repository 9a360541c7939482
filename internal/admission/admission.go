// Package admission implements per-node admission control for
// coordinator requests: a bounded in-flight slot pool with a
// CoDel-style queue-delay target. Requests that acquire a slot
// immediately are never shed; requests that would wait longer than
// the target (or overflow the waiting queue) are rejected with
// ErrOverload so the client fails fast instead of piling up behind a
// saturated coordinator.
package admission

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverload is returned by Acquire when the controller sheds a
// request. Callers propagate it to clients (over the wire it is
// recognised by flattened-string matching, like ErrNotFound).
var ErrOverload = errors.New("overloaded: admission queue full")

// Config bounds a Controller.
type Config struct {
	// MaxInFlight is the number of concurrently admitted requests.
	// Must be > 0. At most queuePerSlot×MaxInFlight requests wait for a
	// slot; one arriving behind that many waiters is shed immediately.
	MaxInFlight int
	// QueueTarget is the maximum time a request may wait for a slot
	// before being shed (CoDel-style sojourn bound); 0 means 5ms.
	QueueTarget time.Duration
}

// Stats is a snapshot of controller counters.
type Stats struct {
	Admitted      uint64
	Shed          uint64
	InFlight      int
	Queued        int
	QueueDelayP99 time.Duration // over a sliding window of recent admissions
}

const delayWindow = 512

// queuePerSlot sizes the waiting queue: queuePerSlot waiters per slot.
const queuePerSlot = 4

// Controller is a concurrency limiter with a queue-delay bound.
// The zero value is not usable; construct with New.
type Controller struct {
	cfg   Config
	slots chan struct{}

	queued   atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64

	mu     sync.Mutex
	delays [delayWindow]time.Duration // ring of recent queue sojourns
	nd     int                        // number of valid entries
	di     int                        // next write index
}

// New builds a Controller; cfg.MaxInFlight must be positive.
func New(cfg Config) *Controller {
	if cfg.MaxInFlight <= 0 {
		panic("admission: MaxInFlight must be > 0")
	}
	if cfg.QueueTarget <= 0 {
		cfg.QueueTarget = 5 * time.Millisecond
	}
	return &Controller{cfg: cfg, slots: make(chan struct{}, cfg.MaxInFlight)}
}

// Acquire admits the request or sheds it with ErrOverload. On
// success the returned release func must be called exactly once when
// the request finishes. A request that gets a slot without waiting is
// never shed, regardless of queue history.
func (c *Controller) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: an idle controller never sheds.
	select {
	case c.slots <- struct{}{}:
		c.admitted.Add(1)
		c.record(0)
		return c.release, nil
	default:
	}

	if int(c.queued.Load()) >= queuePerSlot*c.cfg.MaxInFlight {
		c.shed.Add(1)
		return nil, ErrOverload
	}
	c.queued.Add(1)
	defer c.queued.Add(-1)

	start := time.Now()
	t := time.NewTimer(c.cfg.QueueTarget)
	defer t.Stop()
	select {
	case c.slots <- struct{}{}:
		c.admitted.Add(1)
		c.record(time.Since(start))
		return c.release, nil
	case <-t.C:
		// Waited past the sojourn target: shed so the queue stays
		// short instead of growing toward the RPC timeout.
		c.shed.Add(1)
		return nil, ErrOverload
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *Controller) release() { <-c.slots }

func (c *Controller) record(d time.Duration) {
	c.mu.Lock()
	c.delays[c.di] = d
	c.di = (c.di + 1) % delayWindow
	if c.nd < delayWindow {
		c.nd++
	}
	c.mu.Unlock()
}

// Stats snapshots the counters. QueueDelayP99 is computed over the
// sliding window of the most recent admissions (shed requests are not
// included: they are bounded by QueueTarget by construction).
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	n := c.nd
	buf := make([]time.Duration, n)
	if n > 0 {
		copy(buf, c.delays[:n])
	}
	c.mu.Unlock()
	var p99 time.Duration
	if n > 0 {
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		idx := (n * 99) / 100
		if idx >= n {
			idx = n - 1
		}
		p99 = buf[idx]
	}
	return Stats{
		Admitted:      c.admitted.Load(),
		Shed:          c.shed.Load(),
		InFlight:      len(c.slots),
		Queued:        int(c.queued.Load()),
		QueueDelayP99: p99,
	}
}
