package cluster

import (
	"sync"
	"time"

	"repro/internal/dot"
)

// ejector is the client-side failure detector, the dual of the nodes'
// peer suspicion (node.Suspected): a cluster-wide outlier map of
// coordinators that recently failed a client request at the transport
// level (timeout or unreachable — the signature of a sick or partitioned
// node, as opposed to orderly ErrOverload pushback, which is cheap and
// already handled by the retry budget). Routing policies that get to
// choose among several candidates (RouteOwner, RouteRandom) prefer
// non-ejected nodes, so open-loop load drains away from a sick
// coordinator instead of re-discovering the failure once per operation
// per client at full RPC-timeout cost.
//
// Recovery is a single probe. When an ejection window expires, the
// first pick that considers the node is let through as the probe and
// the window is silently re-armed, so every other pick keeps avoiding
// until the probe resolves: a transport failure extends the ejection, a
// successful WRITE clears it. Reads do not clear — a node whose WAL is
// wedged still answers reads promptly, and readmitting it on that
// evidence would send writes straight back into the stall.
type ejector struct {
	window time.Duration

	mu        sync.Mutex
	until     map[dot.ID]time.Time
	ejections uint64
}

func newEjector(window time.Duration) *ejector {
	return &ejector{window: window, until: make(map[dot.ID]time.Time)}
}

// note marks id unhealthy until now+window, extending any current
// ejection.
func (e *ejector) note(id dot.ID) {
	e.mu.Lock()
	e.until[id] = time.Now().Add(e.window)
	e.ejections++
	e.mu.Unlock()
}

// clear forgets id entirely (a write to it succeeded).
func (e *ejector) clear(id dot.ID) {
	e.mu.Lock()
	delete(e.until, id)
	e.mu.Unlock()
}

// avoided reports whether id should be skipped by a routing pick. An
// expired window admits exactly the calling pick as the recovery probe
// and re-arms itself, so concurrent picks keep avoiding; if the probe's
// request then dies the transport failure re-extends the ejection, and
// if no request ever reports back the next expiry admits another probe.
func (e *ejector) avoided(id dot.ID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	until, ok := e.until[id]
	if !ok {
		return false
	}
	if time.Now().Before(until) {
		return true
	}
	e.until[id] = time.Now().Add(e.window)
	return false
}

// noteEject records a transport-level coordinator failure for
// client-side ejection. Nil-safe: a no-op unless Config.ClientEjection
// enabled the ejector.
func (c *Cluster) noteEject(id dot.ID) {
	if c.eject != nil {
		c.eject.note(id)
	}
}

// noteWriteOK reports a successful put to id, closing any ejection.
func (c *Cluster) noteWriteOK(id dot.ID) {
	if c.eject != nil {
		c.eject.clear(id)
	}
}

// Ejections returns how many coordinator failures fed the client-side
// ejector (0 when Config.ClientEjection is unset).
func (c *Cluster) Ejections() uint64 {
	if c.eject == nil {
		return 0
	}
	c.eject.mu.Lock()
	defer c.eject.mu.Unlock()
	return c.eject.ejections
}
