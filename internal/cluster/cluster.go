// Package cluster assembles replica nodes into a running store and
// provides the client library: context-carrying sessions that route gets
// and puts to the right coordinator over any transport. This is the
// top-level substrate the latency/metadata experiments (C3), the churn
// experiment (E1) and the examples run against.
//
// Membership is elastic: AddNode starts a new replica, adds it to the
// live ring and synchronously streams the keys it now owns from the
// existing members (computed with ring.Rebalance, so only re-owned ranges
// move); RemoveNode has the leaver push each of its keys to the key's new
// owners and drain pending hints before it is deregistered and closed.
// Clients route per-request off the shared ring, so traffic follows
// membership changes automatically — a coordinator that stops owning a
// key forwards, and sloppy quorums (Config.SloppyQuorum) keep writes
// succeeding while a member is mid-departure.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
	"repro/internal/ring"
	"repro/internal/transport"
)

// Config parameterises a cluster.
type Config struct {
	Mech  core.Mechanism
	Nodes int // replica servers

	// N/R/W as in node.Config; defaults 3/2/2 clamped to Nodes.
	N, R, W int

	// Transport carries all traffic. If nil, the cluster creates (and
	// Close closes) a transport.Loopback: one mux per node on 127.0.0.1,
	// with no injected faults or latency. Wrap one in transport.Chaos to
	// inject them.
	Transport transport.Transport

	ReadRepair          bool
	HintedHandoff       bool
	AntiEntropyInterval time.Duration
	Timeout             time.Duration
	Seed                int64

	// SloppyQuorum lets write coordinators extend past unreachable
	// preference-list members to ring fallbacks (see node.Config).
	SloppyQuorum bool

	// SuspicionWindow is each node's failure-suspicion window after a
	// failed send (see node.Config); 0 disables suspicion.
	SuspicionWindow time.Duration

	// DataRoot enables durable storage: each node persists to
	// <DataRoot>/<id> with a write-ahead log and spill segments, and a
	// node restarted via RestartNode recovers its pre-crash state from
	// there. Empty means in-memory nodes.
	DataRoot string

	// Fsync makes every WAL commit fsync before a write is acknowledged
	// (only meaningful with DataRoot).
	Fsync bool

	// Engine selects each durable node's residency policy
	// (storage.EngineMemory or storage.EngineTiered; empty means memory;
	// see node.Config.Engine). Tiered requires DataRoot.
	Engine string

	// MemBudget bounds each node's hot cache in bytes under the tiered
	// policy (0 = storage.DefaultMemBudget; ignored under memory).
	MemBudget int64

	// Overload plane (see the matching node.Config fields): admission
	// control per node (MaxInFlight/QueueTarget) and hedged quorum reads.
	MaxInFlight int
	QueueTarget time.Duration
	HedgedReads bool

	// ClientRetries lets clients retry a failed Get/Put up to this many
	// extra attempts, gated by the cluster-wide retry budget. 0 keeps
	// the pre-PR-10 behaviour: one attempt, errors surface to the caller.
	ClientRetries int

	// RetryBudget is the token-bucket earn rate: every issued client
	// request earns this many retry tokens (capped), every retry spends
	// one, so retries stay ≤ ~RetryBudget of issued load instead of
	// amplifying an overload. 0 means 0.1 when ClientRetries > 0;
	// negative means unlimited retries (the A/B "unprotected" shape).
	RetryBudget float64

	// ClientEjection enables client-side coordinator outlier ejection:
	// after a request to a coordinator fails with overload pushback, a
	// timeout or an unreachable transport, clients whose routing policy
	// has a choice (RouteOwner, RouteRandom) prefer other candidates for
	// this window. 0 disables (every pick stays uniformly random).
	ClientEjection time.Duration

	// ClockSkew, when non-nil, offsets each node's wall clock by the
	// returned duration (the clock-skew nemesis): dot-issuance stamps,
	// suspicion windows and redelivery backoff all run on the skewed
	// clock. Causality must not care; the E4 skew variant asserts it.
	ClockSkew func(id dot.ID) time.Duration
}

// Cluster is a set of replica nodes sharing a ring and transport.
// Membership is elastic: AddNode and RemoveNode mutate the live ring and
// hand the re-owned keys to their new owners while traffic continues.
type Cluster struct {
	Ring      *ring.Ring
	Nodes     []*node.Node
	Transport transport.Transport
	mech      core.Mechanism
	timeout   time.Duration
	ownsT     bool
	cfg       Config // normalised construction config, reused by AddNode
	// retry is the cluster-wide client retry budget (see retry.go);
	// nil when Config.ClientRetries is 0.
	retry *retryBudget
	// eject is the client-side coordinator outlier map (see eject.go);
	// nil when Config.ClientEjection is 0.
	eject *ejector

	mu      sync.Mutex
	clients int
	nextID  int // next auto-assigned node index
	// seedSeq is a monotone counter behind every post-startup seed offset,
	// so concurrent AddNode/RestartNode calls can never hand two nodes the
	// same RNG stream (len(c.Nodes) alone can repeat across races).
	seedSeq int64
	// restarting reserves ids mid-RestartNode so two concurrent calls
	// cannot both pass the not-running check and double-open one data dir.
	restarting map[dot.ID]bool
}

// NodeIDs returns the member ids in index order ("n00", "n01", ...).
func NodeIDs(n int) []dot.ID {
	out := make([]dot.ID, n)
	for i := range out {
		out[i] = dot.ID(fmt.Sprintf("n%02d", i))
	}
	return out
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Mech == nil {
		return nil, errors.New("cluster: mechanism required")
	}
	if cfg.Nodes < 1 {
		return nil, errors.New("cluster: at least one node required")
	}
	if cfg.N < 1 {
		cfg.N = 3
	}
	// N is the *target* replication degree and deliberately not clamped
	// to the initial node count: an elastic cluster may start below N
	// and grow into it (nodes clamp quorums to the preference-list size
	// per request), and keys replicate wider as members join.
	if cfg.R < 1 {
		cfg.R = (cfg.N + 1) / 2
	}
	if cfg.W < 1 {
		cfg.W = (cfg.N + 1) / 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	ownsT := false
	if cfg.Transport == nil {
		cfg.Transport = transport.NewLoopback()
		ownsT = true
	}
	r := ring.New(0)
	ids := NodeIDs(cfg.Nodes)
	for _, id := range ids {
		r.Add(id)
	}
	c := &Cluster{
		Ring:       r,
		Transport:  cfg.Transport,
		mech:       cfg.Mech,
		timeout:    cfg.Timeout,
		ownsT:      ownsT,
		cfg:        cfg,
		nextID:     cfg.Nodes,
		seedSeq:    int64(cfg.Nodes), // startup nodes used offsets 0..Nodes-1
		restarting: make(map[dot.ID]bool),
	}
	if cfg.ClientRetries > 0 {
		c.retry = newRetryBudget(cfg.RetryBudget)
	}
	if cfg.ClientEjection > 0 {
		c.eject = newEjector(cfg.ClientEjection)
	}
	for i, id := range ids {
		n, err := c.startNode(id, int64(i))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: node %s: %w", id, err)
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// startNode builds one replica node from the cluster's normalised config.
// With Config.DataRoot the node opens (or recovers) its durable store
// under <DataRoot>/<id> before serving.
func (c *Cluster) startNode(id dot.ID, seedOffset int64) (*node.Node, error) {
	dataDir := ""
	if c.cfg.DataRoot != "" {
		dataDir = filepath.Join(c.cfg.DataRoot, string(id))
	}
	var nowFn func() time.Time
	if c.cfg.ClockSkew != nil {
		if skew := c.cfg.ClockSkew(id); skew != 0 {
			nowFn = func() time.Time { return time.Now().Add(skew) }
		}
	}
	return node.New(node.Config{
		ID:                  id,
		Mech:                c.cfg.Mech,
		Transport:           c.cfg.Transport,
		Ring:                c.Ring,
		N:                   c.cfg.N,
		R:                   c.cfg.R,
		W:                   c.cfg.W,
		Timeout:             c.cfg.Timeout,
		ReadRepair:          c.cfg.ReadRepair,
		HintedHandoff:       c.cfg.HintedHandoff,
		AntiEntropyInterval: c.cfg.AntiEntropyInterval,
		SloppyQuorum:        c.cfg.SloppyQuorum,
		SuspicionWindow:     c.cfg.SuspicionWindow,
		DataDir:             dataDir,
		Fsync:               c.cfg.Fsync,
		Engine:              c.cfg.Engine,
		MemBudget:           c.cfg.MemBudget,
		Seed:                c.cfg.Seed + seedOffset,
		MaxInFlight:         c.cfg.MaxInFlight,
		QueueTarget:         c.cfg.QueueTarget,
		HedgedReads:         c.cfg.HedgedReads,
		Now:                 nowFn,
	})
}

// ---------------------------------------------------------------------------
// Elastic membership.
// ---------------------------------------------------------------------------

// AddNode starts a new replica node, adds it to the live ring and streams
// the keys it now owns from the existing members (synchronous handoff).
// An empty id is auto-assigned the next "nNN" name. Traffic may continue
// throughout: the new node answers for its ranges as soon as the ring
// includes it, and handoff states merge via Sync, so a write landing
// mid-handoff is never lost.
func (c *Cluster) AddNode(id dot.ID) (*node.Node, error) {
	c.mu.Lock()
	if id == "" {
		for {
			id = dot.ID(fmt.Sprintf("n%02d", c.nextID))
			c.nextID++
			if !containsNode(c.Nodes, id) && !c.restarting[id] {
				break
			}
		}
	} else if containsNode(c.Nodes, id) || c.restarting[id] {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: node %s already exists", id)
	}
	c.seedSeq++
	seedOffset := c.seedSeq
	c.mu.Unlock()

	n, err := c.startNode(id, seedOffset)
	if err != nil {
		return nil, fmt.Errorf("cluster: add node %s: %w", id, err)
	}
	before := c.Ring.Clone()
	c.Ring.Add(id)
	movs := c.Ring.Rebalance(before, c.cfg.N)
	moved := ring.MovedTo(movs, id)

	// Every existing member streams its re-owned keys to the joiner.
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	c.mu.Lock()
	olds := append([]*node.Node(nil), c.Nodes...)
	c.Nodes = append(c.Nodes, n)
	c.mu.Unlock()
	var firstErr error
	for _, old := range olds {
		if _, err := old.HandoffTo(ctx, id, moved); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return n, firstErr
}

// RemoveNode gracefully removes a member: the ring drops it (re-routing
// new traffic), the leaver streams each of its keys to the key's new
// owners and drains its pending hints, and finally its transport
// registration is torn down and the node closed. Acknowledged writes
// survive because every key the leaver held reaches its new preference
// list before the node disappears.
func (c *Cluster) RemoveNode(id dot.ID) error {
	c.mu.Lock()
	idx := -1
	for i, n := range c.Nodes {
		if n.ID() == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no node %s", id)
	}
	if len(c.Nodes) == 1 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: refusing to remove the last node %s", id)
	}
	leaver := c.Nodes[idx]
	c.Nodes = append(c.Nodes[:idx], c.Nodes[idx+1:]...)
	c.mu.Unlock()

	// Leave removes the node from the (shared) ring, hands its keys to
	// the ranges' new owners and drains hints; the member.leave
	// announcements it sends are no-ops here because the ring is shared.
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	err := leaver.Leave(ctx)
	c.Transport.Deregister(id)
	if cerr := leaver.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// KillNode simulates a crash: the node is torn from the transport and
// closed with NO graceful leave — no handoff, no hint drain, and it stays
// in the ring (a crashed host is not a membership change; sloppy quorums
// and hints carry its share of writes meanwhile). Its data directory is
// untouched, so RestartNode can recover it. Contrast RemoveNode, the
// graceful path.
func (c *Cluster) KillNode(id dot.ID) error {
	c.mu.Lock()
	idx := -1
	for i, n := range c.Nodes {
		if n.ID() == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no node %s", id)
	}
	victim := c.Nodes[idx]
	c.Nodes = append(c.Nodes[:idx], c.Nodes[idx+1:]...)
	// Reserve the id for the whole teardown: a concurrent RestartNode
	// slipping in between the unlock and the Deregister below would have
	// its fresh registration torn down (and its store blocked on the
	// victim's still-held flock).
	c.restarting[id] = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.restarting, id)
		c.mu.Unlock()
	}()
	// Deregister first so no new request reaches the corpse, then close
	// (which waits out in-flight background work and closes the store).
	c.Transport.Deregister(id)
	return victim.Close()
}

// RestartNode resurrects a killed node with the same id: with a DataRoot
// the replica recovers its pre-crash store (segment index + WAL replay) before
// serving, rejoining with every acknowledged write it ever persisted and
// dot counters that cannot collide with those it issued before the crash.
func (c *Cluster) RestartNode(id dot.ID) (*node.Node, error) {
	c.mu.Lock()
	if containsNode(c.Nodes, id) || c.restarting[id] {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: node %s is running", id)
	}
	c.restarting[id] = true
	c.seedSeq++
	seedOffset := c.seedSeq
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.restarting, id)
		c.mu.Unlock()
	}()
	n, err := c.startNode(id, seedOffset)
	if err != nil {
		return nil, fmt.Errorf("cluster: restart node %s: %w", id, err)
	}
	c.Ring.Add(id) // no-op after a crash (never removed), needed after RemoveNode
	c.mu.Lock()
	c.Nodes = append(c.Nodes, n)
	c.mu.Unlock()
	return n, nil
}

func containsNode(nodes []*node.Node, id dot.ID) bool {
	for _, n := range nodes {
		if n.ID() == id {
			return true
		}
	}
	return false
}

// Mechanism returns the cluster's causality mechanism.
func (c *Cluster) Mechanism() core.Mechanism { return c.mech }

// NodeByID returns the running node with the given id, or nil.
func (c *Cluster) NodeByID(id dot.ID) *node.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.Nodes {
		if n.ID() == id {
			return n
		}
	}
	return nil
}

// Close stops all nodes (and the transport if the cluster created it).
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.Nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	if c.ownsT {
		if err := c.Transport.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TotalMetadataBytes sums causal metadata across every node's store.
func (c *Cluster) TotalMetadataBytes() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.Store().TotalMetadataBytes()
	}
	return total
}

// MaxKeyMetadataBytes returns the largest per-key metadata size across
// nodes for the given key.
func (c *Cluster) MaxKeyMetadataBytes(key string) int {
	max := 0
	for _, n := range c.Nodes {
		if b := n.Store().MetadataBytes(key); b > max {
			max = b
		}
	}
	return max
}

// MaxSiblings returns the largest sibling count for key across nodes.
func (c *Cluster) MaxSiblings(key string) int {
	max := 0
	for _, n := range c.Nodes {
		if s := n.Store().Siblings(key); s > max {
			max = s
		}
	}
	return max
}

// ---------------------------------------------------------------------------
// Client sessions.
// ---------------------------------------------------------------------------

// RoutingPolicy selects the node a client sends each request to.
type RoutingPolicy int

// Routing policies.
const (
	// RouteCoordinator sends to the key's first preference node (the
	// common case — smart client).
	RouteCoordinator RoutingPolicy = iota + 1
	// RouteRandom sends to a uniformly random member (dumb client /
	// load balancer); the receiving node forwards if it does not own the
	// key, exercising the forwarding path.
	RouteRandom
	// RouteOwner sends to a uniformly random member of the key's
	// preference list. Owners coordinate locally (no forwarding hop), so
	// under a partition the same key is coordinated from whichever side
	// the dice land on — the split-brain shape the nemesis experiments
	// need — while every client request stays a single idempotent-on-
	// retry RPC (a forwarded put re-executes with the same causal
	// context if the network duplicates it, minting a sibling the client
	// never learns about).
	RouteOwner
)

// Client is a session-holding store client. Not safe for concurrent use;
// create one per goroutine (sessions are identity-bound, as in Riak).
type Client struct {
	ID      dot.ID
	cluster *Cluster
	policy  RoutingPolicy
	rng     *rand.Rand

	// sessions holds the per-key causal context accumulated by this
	// client (read-your-writes discipline).
	sessions map[string]core.Context
}

// NewClient creates a client session. A zero id is assigned a unique one.
func (c *Cluster) NewClient(id dot.ID, policy RoutingPolicy) *Client {
	c.mu.Lock()
	c.clients++
	seq := c.clients
	c.mu.Unlock()
	if id == "" {
		id = dot.ID(fmt.Sprintf("client-%03d", seq))
	}
	if policy == 0 {
		policy = RouteCoordinator
	}
	return &Client{
		ID:       id,
		cluster:  c,
		policy:   policy,
		rng:      rand.New(rand.NewSource(int64(seq) * 7919)),
		sessions: make(map[string]core.Context),
	}
}

func (cl *Client) target(key string) (dot.ID, error) {
	switch cl.policy {
	case RouteRandom:
		members := cl.cluster.Ring.Members()
		if len(members) == 0 {
			return "", errors.New("cluster: no members")
		}
		return cl.pick(members), nil
	case RouteOwner:
		pref := cl.cluster.Ring.Preference(key, cl.cluster.cfg.N)
		if len(pref) == 0 {
			return "", errors.New("cluster: no members")
		}
		return cl.pick(pref), nil
	default:
		id, ok := cl.cluster.Ring.Coordinator(key)
		if !ok {
			return "", errors.New("cluster: no coordinator")
		}
		return id, nil
	}
}

// pick chooses a uniformly random candidate, preferring ones not
// currently ejected by the client-side outlier detector (eject.go).
// When every candidate is ejected the full list is used, so that pick
// doubles as the recovery probe.
func (cl *Client) pick(cands []dot.ID) dot.ID {
	if e := cl.cluster.eject; e != nil {
		healthy := cands[:0:0]
		for _, id := range cands {
			if !e.avoided(id) {
				healthy = append(healthy, id)
			}
		}
		if len(healthy) > 0 {
			return healthy[cl.rng.Intn(len(healthy))]
		}
	}
	return cands[cl.rng.Intn(len(cands))]
}

func (cl *Client) session(key string) core.Context {
	if ctx, ok := cl.sessions[key]; ok {
		return ctx
	}
	return cl.cluster.mech.EmptyContext()
}

func (cl *Client) adopt(key string, ctx core.Context) error {
	joined, err := cl.cluster.mech.JoinContexts(cl.session(key), ctx)
	if err != nil {
		return err
	}
	cl.sessions[key] = joined
	return nil
}

// Token is the opaque causal-context token a read returns and a write
// accepts — a core.Context in its canonical wire encoding (Riak's vclock
// shape). Clients that hold tokens instead of live Client sessions can
// round-trip causality through any medium that carries bytes.
type Token []byte

// Context decodes the token back into the cluster's mechanism context.
// A nil token is the empty context.
func (c *Cluster) Context(t Token) (core.Context, error) {
	return node.DecodeContextToken(c.mech, t)
}

// Token encodes a context as an opaque token.
func (c *Cluster) Token(ctx core.Context) Token {
	return node.EncodeContextToken(c.mech, ctx)
}

// Get reads key: it returns the concurrent sibling values and folds the
// causal context into the client's session. Missing keys read as zero
// siblings (Riak's notfound_ok), at the cluster's configured quorum.
func (cl *Client) Get(ctx context.Context, key string) ([][]byte, error) {
	vals, _, err := cl.GetWith(ctx, key, node.ReadOptions{NotFoundOK: true})
	return vals, err
}

// GetWith reads key with explicit per-request options, returning the
// sibling values and the opaque causal-context token covering them. The
// context is also folded into the client's session, so later Put calls
// supersede what this read observed.
func (cl *Client) GetWith(ctx context.Context, key string, opts node.ReadOptions) ([][]byte, Token, error) {
	var rr core.ReadResult
	// Each attempt re-picks its target, so under RouteOwner/RouteRandom a
	// budgeted retry after an overloaded coordinator lands elsewhere.
	err := cl.withRetries(func() error {
		to, err := cl.target(key)
		if err != nil {
			return err
		}
		cctx, cancel := context.WithTimeout(ctx, cl.cluster.timeout)
		defer cancel()
		w := codec.GetPooledWriter()
		defer codec.PutPooledWriter(w) // Send keeps no reference to the body
		node.WriteGetRequest(w, cl.cluster.mech, key, opts)
		resp, err := cl.cluster.Transport.Send(cctx, cl.ID, to, transport.Request{Method: node.MethodGet, Body: w.Bytes()})
		if err != nil {
			// Transport-level failure (timeout, unreachable): the
			// coordinator itself wasted this client's time — eject it.
			// App-level errors below, including orderly ErrOverload
			// pushback, do not eject: they are cheap fast-fails the
			// retry budget already handles, and at uniform overload
			// ejecting every shedding node just sloshes load around.
			cl.cluster.noteEject(to)
			return fmt.Errorf("cluster: get %q: %w", key, err)
		}
		if aerr := transport.AppError(resp); aerr != nil {
			return fmt.Errorf("cluster: get %q: %w", key, aerr)
		}
		rr, err = node.DecodeReadResult(cl.cluster.mech, resp.Body)
		if err != nil {
			return fmt.Errorf("cluster: get %q: %w", key, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := cl.adopt(key, rr.Ctx); err != nil {
		return nil, nil, err
	}
	return rr.Values, cl.cluster.Token(rr.Ctx), nil
}

// Put writes value under key using the session's causal context (write
// without re-reading; races surface as siblings on later reads).
func (cl *Client) Put(ctx context.Context, key string, value []byte) error {
	_, err := cl.PutWith(ctx, key, value, nil, node.WriteOptions{})
	return err
}

// PutWith writes value under key with explicit per-request options. A
// non-nil token supplies the causal context (overriding opts.Context);
// with both nil the client's accumulated session context is used. The
// returned token covers the post-write state (Riak's return_body), and is
// also folded into the session.
func (cl *Client) PutWith(ctx context.Context, key string, value []byte, token Token, opts node.WriteOptions) (Token, error) {
	if token != nil {
		wctx, err := cl.cluster.Context(token)
		if err != nil {
			return nil, fmt.Errorf("cluster: put %q: %w", key, err)
		}
		opts.Context = wctx
	}
	if opts.Context == nil {
		opts.Context = cl.session(key)
	}
	var rr core.ReadResult
	// Retrying a put with the same causal context is safe: a duplicate
	// execution mints a sibling carrying the same value, which the
	// context of any later read supersedes (the RouteOwner doc covers
	// the same property for network-duplicated puts).
	err := cl.withRetries(func() error {
		to, err := cl.target(key)
		if err != nil {
			return err
		}
		cctx, cancel := context.WithTimeout(ctx, cl.cluster.timeout)
		defer cancel()
		w := codec.GetPooledWriter()
		defer codec.PutPooledWriter(w) // Send keeps no reference to the body
		node.WritePutRequest(w, cl.cluster.mech, key, value, cl.ID, opts)
		resp, err := cl.cluster.Transport.Send(cctx, cl.ID, to, transport.Request{Method: node.MethodPut, Body: w.Bytes()})
		if err != nil {
			cl.cluster.noteEject(to) // same rule as GetWith: transport failures only
			return fmt.Errorf("cluster: put %q: %w", key, err)
		}
		if aerr := transport.AppError(resp); aerr != nil {
			return fmt.Errorf("cluster: put %q: %w", key, aerr)
		}
		rr, err = node.DecodeReadResult(cl.cluster.mech, resp.Body)
		if err != nil {
			return fmt.Errorf("cluster: put %q: %w", key, err)
		}
		// A successful write is the one signal that readmits an ejected
		// coordinator (reads do not: a node with a wedged WAL still
		// answers reads promptly).
		cl.cluster.noteWriteOK(to)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := cl.adopt(key, rr.Ctx); err != nil {
		return nil, err
	}
	return cl.cluster.Token(rr.Ctx), nil
}

// Update is the read-modify-write convenience: Get, apply f to the sibling
// values, Put the result with the fresh context.
func (cl *Client) Update(ctx context.Context, key string, f func(siblings [][]byte) []byte) error {
	siblings, err := cl.Get(ctx, key)
	if err != nil {
		return err
	}
	return cl.Put(ctx, key, f(siblings))
}

// ForgetSession drops the client's causal context for key (simulating a
// fresh client that presents no context — the racing blind writer).
func (cl *Client) ForgetSession(key string) {
	delete(cl.sessions, key)
}

// ---------------------------------------------------------------------------
// Causal sessions.
// ---------------------------------------------------------------------------

// Session enforces session guarantees — read-your-writes and monotonic
// reads — on top of a Client. Where a plain Client merely *carries* its
// accumulated causal context (so its writes supersede its reads), a
// Session also presents that context as a floor on every request: the
// coordinator must not answer a Get until its merged state dominates
// everything this session has seen, re-reading replicas until it does.
// Reads at LevelOne against a converged key still cost zero extra replica
// round trips (Stats.SessionWaits/SessionRetries stay 0).
//
// Like Client, a Session is not safe for concurrent use; create one per
// goroutine.
type Session struct {
	cl *Client
}

// NewSession creates a causal session bound to a fresh client identity.
func (c *Cluster) NewSession(id dot.ID, policy RoutingPolicy) *Session {
	return &Session{cl: c.NewClient(id, policy)}
}

// Session wraps an existing client in session-guarantee enforcement.
// The session shares (and extends) the client's accumulated context.
func (cl *Client) Session() *Session { return &Session{cl: cl} }

// Client returns the underlying client (shared context state).
func (s *Session) Client() *Client { return s.cl }

// Get reads key under the session floor at the default level.
func (s *Session) Get(ctx context.Context, key string) ([][]byte, Token, error) {
	return s.GetWith(ctx, key, node.ReadOptions{NotFoundOK: true})
}

// GetWith reads key under the session floor with explicit options
// (opts.Session is overwritten with the session's accumulated context).
func (s *Session) GetWith(ctx context.Context, key string, opts node.ReadOptions) ([][]byte, Token, error) {
	opts.Session = s.cl.session(key)
	return s.cl.GetWith(ctx, key, opts)
}

// Put writes value using the session's context both as the write context
// (superseding every sibling the session has read) and as the coordinator
// floor (the write cannot apply on a replica that has not caught up with
// the session's causal past).
func (s *Session) Put(ctx context.Context, key string, value []byte) (Token, error) {
	return s.PutWith(ctx, key, value, node.WriteOptions{})
}

// PutWith writes value under the session floor with explicit options
// (opts.Context defaults to the session context; opts.Session is
// overwritten with it).
func (s *Session) PutWith(ctx context.Context, key string, value []byte, opts node.WriteOptions) (Token, error) {
	sess := s.cl.session(key)
	if opts.Context == nil {
		opts.Context = sess
	}
	opts.Session = sess
	return s.cl.PutWith(ctx, key, value, nil, opts)
}

// Update is the read-modify-write convenience under session guarantees.
func (s *Session) Update(ctx context.Context, key string, f func(siblings [][]byte) []byte) error {
	siblings, _, err := s.Get(ctx, key)
	if err != nil {
		return err
	}
	_, err = s.Put(ctx, key, f(siblings))
	return err
}
