package node

// Hedged quorum reads and per-peer RPC accounting for the replica RPC
// path (repl.get, repl.batch).
//
// A hedged read contacts the healthiest replicas first (orderHealthyFirst)
// and launches one extra replica once the primaries have been slower
// than the observed read p99 (hedgeDelay). The per-peer accounting counts
// every completed send, success or failure, with its wall time, so
// experiments can always ask "what did talking to that peer actually
// cost" (PeerRPC).

import (
	"sort"
	"sync"
	"time"

	"repro/internal/dot"
)

// RPCCost is one peer's completed replica-RPC sends (success or failure)
// and their summed wall time.
type RPCCost struct {
	Sends   uint64
	Latency time.Duration
}

// Mean is the average wall time of one send (0 before the first).
func (c RPCCost) Mean() time.Duration {
	if c.Sends == 0 {
		return 0
	}
	return c.Latency / time.Duration(c.Sends)
}

// rpcCosts is a node's per-peer RPCCost table.
type rpcCosts struct {
	mu    sync.Mutex
	peers map[dot.ID]RPCCost
}

func (c *rpcCosts) record(peer dot.ID, d time.Duration) {
	c.mu.Lock()
	if c.peers == nil {
		c.peers = make(map[dot.ID]RPCCost)
	}
	s := c.peers[peer]
	s.Sends++
	s.Latency += d
	c.peers[peer] = s
	c.mu.Unlock()
}

// PeerRPC returns this node's accounting of replica RPCs sent to peer
// (zero if the node never talked to it).
func (n *Node) PeerRPC(peer dot.ID) RPCCost {
	n.rpcCost.mu.Lock()
	defer n.rpcCost.mu.Unlock()
	return n.rpcCost.peers[peer]
}

// orderHealthyFirst orders peers for a hedged fan-out: unsuspected peers
// first (in preference order), suspected ones after — so the primaries
// are the replicas most likely to answer, and a peer that just failed a
// send is only reached by the hedge or by failure promotion.
func (n *Node) orderHealthyFirst(peers []dot.ID) []dot.ID {
	out := make([]dot.ID, 0, len(peers))
	var unhealthy []dot.ID
	for _, p := range peers {
		if n.Suspected(p) {
			unhealthy = append(unhealthy, p)
		} else {
			out = append(out, p)
		}
	}
	return append(out, unhealthy...)
}

// ---------------------------------------------------------------------------
// Hedged-read delay: a sliding window of replica read latencies.
// ---------------------------------------------------------------------------

const (
	hedgeWindow       = 256
	hedgeMinSamples   = 8
	defaultHedgeDelay = 5 * time.Millisecond
	minHedgeDelay     = time.Millisecond
)

// latencyRing records recent successful replica-read RPC durations and
// answers "how long is suspiciously long" (the p99) for hedging.
type latencyRing struct {
	mu      sync.Mutex
	samples [hedgeWindow]time.Duration
	n, i    int
}

func (l *latencyRing) record(d time.Duration) {
	l.mu.Lock()
	l.samples[l.i] = d
	l.i = (l.i + 1) % hedgeWindow
	if l.n < hedgeWindow {
		l.n++
	}
	l.mu.Unlock()
}

func (l *latencyRing) p99() (time.Duration, bool) {
	l.mu.Lock()
	n := l.n
	buf := make([]time.Duration, n)
	copy(buf, l.samples[:n])
	l.mu.Unlock()
	if n < hedgeMinSamples {
		return 0, false
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := (n * 99) / 100
	if idx >= n {
		idx = n - 1
	}
	return buf[idx], true
}

// hedgeDelay is how long a hedged read waits for the primary fan-out
// before contacting one extra replica: the observed read p99, clamped to
// [1ms, Timeout/4], defaulting to 5ms until enough samples exist.
func (n *Node) hedgeDelay() time.Duration {
	d, ok := n.hedgeLat.p99()
	if !ok {
		d = defaultHedgeDelay
	}
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if max := n.cfg.Timeout / 4; d > max {
		d = max
	}
	return d
}
