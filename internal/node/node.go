// Package node implements the replica server: the Dynamo/Riak-style
// process that coordinates client gets and puts over a preference list of
// N replicas with R/W quorums, replicates states, repairs stale replicas
// on read, and runs background anti-entropy. The causality mechanism is
// pluggable (internal/core), which is how the experiments compare DVV
// against the baselines on identical request paths.
//
// Membership is elastic. A node can join a running cluster (JoinCluster /
// MethodJoin gossip) or leave it gracefully (Leave / MethodLeave); both
// trigger the handoff protocol (HandoffTo), which streams the re-owned
// keys to their new owners in Sync-mergeable repl.batch frames, so a
// key can move between servers without losing acknowledged writes or
// manufacturing false concurrency — safe precisely because dotted version
// vectors track causality per replica *server*, not per storage location.
// Quorums clamp to the preference-list size (clampQuorum), so clusters
// smaller than N stay operable while they grow.
//
// Failure handling is Dynamo-shaped: with Config.SloppyQuorum a write
// whose home replica is unreachable extends down the ring to the first
// healthy fallback and counts its ack toward W, leaving a hint for the
// home replica; Config.SuspicionWindow skips recently-failed peers
// without re-paying the timeout; and DeliverHints re-routes hints
// addressed to departed members to each key's current owners.
package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/transport"
)

// RPC method names served by a node.
const (
	MethodGet       = "get"          // client read
	MethodPut       = "put"          // client write
	MethodReplGet   = "repl.get"     // replica state fetch
	MethodReplBatch = "repl.batch"   // batched replica state push (fan-out, repair, hints, AE, handoff)
	MethodAETree    = "ae.tree"      // anti-entropy hash-tree walk (see aetree.go)
	MethodStats     = "stats"        // operational counters
	MethodJoin      = "member.join"  // membership gossip: a node joins
	MethodLeave     = "member.leave" // membership gossip: a node leaves
)

// Config parameterises a node.
type Config struct {
	ID        dot.ID
	Mech      core.Mechanism
	Transport transport.Transport
	Ring      *ring.Ring

	// N is the replication degree; R and W the read and write quorums
	// (counting the coordinator's local operation).
	N, R, W int

	// Timeout bounds each remote exchange a coordinator performs.
	Timeout time.Duration

	// ReadRepair pushes the merged state back to divergent replicas after
	// a read.
	ReadRepair bool

	// AntiEntropyInterval enables the background sync loop when > 0.
	AntiEntropyInterval time.Duration

	// HintedHandoff stores a hint when a replica cannot be reached during
	// a put and redelivers it when the replica comes back (checked on the
	// anti-entropy tick, or via DeliverHints).
	HintedHandoff bool

	// SloppyQuorum extends a put's replica set down the ring when a
	// preference-list member is unreachable: the first healthy fallback
	// beyond the preference list stores the state (its ack counts toward
	// W) and the coordinator keeps a hint for the home replica, so writes
	// survive node failure instead of returning quorum errors.
	SloppyQuorum bool

	// SuspicionWindow is how long a peer stays suspected after a failed
	// send to it. Coordinators skip suspected peers (going straight to
	// fallback + hint) instead of paying the timeout again. 0 disables
	// suspicion.
	SuspicionWindow time.Duration

	// DataDir enables durable storage: the node's store is opened with
	// storage.Open (the tiered engine: write-ahead log + spill segments)
	// in this directory and recovers its pre-crash state — including
	// every per-key dot counter it ever issued — on restart; states come
	// back cold (see storage.Options.Engine). Empty means in-memory only.
	DataDir string

	// Engine selects the durable engine's residency policy
	// (storage.EngineMemory or storage.EngineTiered; empty means memory).
	// Memory never evicts; tiered bounds resident states to MemBudget
	// bytes and requires DataDir.
	// Without DataDir the node's store is the in-memory map either way.
	Engine string

	// MemBudget bounds the hot-cache bytes under the tiered policy
	// (0 = storage.DefaultMemBudget; ignored under memory).
	MemBudget int64

	// Fsync makes every WAL commit fsync before a write is acknowledged
	// (only meaningful with DataDir). Off, a crash can lose the unsynced
	// log tail — never a torn record, but possibly acked writes, and with
	// them the dot counters backing writes peers already replicated: a
	// recovered replica can then re-mint a dot another replica holds with
	// a different value (see storage.Options.Fsync). Durability *and*
	// causality correctness across crashes require Fsync on.
	Fsync bool

	// Addr is the node's advertised network address, carried in membership
	// gossip so TCP peers learn how to dial a joiner. Empty for in-memory
	// transports.
	Addr string

	// Seed makes peer selection reproducible.
	Seed int64

	// MaxInFlight bounds concurrently coordinated client requests
	// (admission control): requests beyond it queue briefly and are shed
	// with ErrOverload once their queue wait passes QueueTarget — CoDel
	// style, a request that gets a slot without waiting is never shed.
	// 0 disables admission control.
	MaxInFlight int

	// QueueTarget is the admission queue-delay bound (0 = 5ms); only
	// meaningful with MaxInFlight > 0. The waiting-request cap is
	// admission's 4x MaxInFlight.
	QueueTarget time.Duration

	// HedgedReads makes quorum reads contact need-1 replicas first and
	// hedge one extra preference-list replica after a p99-derived delay,
	// returning at quorum — bounded tail latency without extra
	// steady-state load. Off, a read merges every reachable replica (the
	// pre-hedging behaviour).
	HedgedReads bool

	// Now injects the node's wall clock (nil = time.Now). Used for
	// suspicion windows, redelivery backoff and dot-issuance stamps; the
	// clock-skew nemesis offsets it per node to prove DVV correctness is
	// timestamp-free.
	Now func() time.Time
}

func (c *Config) validate() error {
	if c.ID == "" {
		return errors.New("node: empty id")
	}
	if c.Mech == nil || c.Transport == nil || c.Ring == nil {
		return errors.New("node: mechanism, transport and ring are required")
	}
	if c.N < 1 {
		c.N = 1
	}
	if c.R < 1 {
		c.R = 1
	}
	if c.W < 1 {
		c.W = 1
	}
	if c.R > c.N || c.W > c.N {
		return fmt.Errorf("node: quorums R=%d W=%d exceed N=%d", c.R, c.W, c.N)
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Engine == storage.EngineTiered && c.DataDir == "" {
		return errors.New("node: engine=tiered requires DataDir")
	}
	return nil
}

// repairConcurrency caps concurrent background repair/redelivery
// goroutines per node (read repair pushes, post-leave hint re-routing): a
// slow or dead peer makes each repair push hang for the full node timeout,
// and without a cap every divergent read would park another goroutine on
// it. At the cap, further repairs are dropped and counted in
// Stats.RepairsDropped — anti-entropy reconverges what a dropped repair
// would have fixed.
const repairConcurrency = 16

// Stats are a node's operational counters.
type Stats struct {
	ClientGets, ClientPuts      uint64
	ReplGets, ReplPuts          uint64
	ReadRepairs, AERounds       uint64
	QuorumFailures, Forwards    uint64
	HintsStored, HintsDelivered uint64

	// ReplFailures counts replica RPCs (repl.batch during coordinated
	// writes, fallback attempts, repl.get during coordinated reads) that
	// failed — errors that were previously swallowed in CoordinatePut's
	// replication goroutines.
	ReplFailures uint64
	// SloppyAcks counts write acks obtained from ring fallbacks while a
	// preference-list member was unreachable (sloppy quorum).
	SloppyAcks uint64
	// HandoffKeys counts keys this node streamed to new owners during
	// membership handoff.
	HandoffKeys uint64
	// RepairsDropped counts background repair/redelivery tasks shed
	// because repairConcurrency workers were already in flight.
	RepairsDropped uint64
	// ReplBatches counts repl.batch frames this node sent; BatchedKeys
	// the (key, state) pairs they carried. BatchedKeys ÷ ReplBatches is
	// the realized coalescing factor of the replication data plane.
	ReplBatches uint64
	BatchedKeys uint64
	// AERepairFailures counts per-key reconciliation RPCs (pushes and
	// pulls) that failed during anti-entropy sweeps. Failed keys are
	// skipped, not fatal: the sweep continues and a later round retries
	// them.
	AERepairFailures uint64
	// HintAttempts counts per-peer redelivery rounds DeliverHints
	// actually attempted; HintSkips counts rounds suppressed because the
	// peer's redelivery backoff window was still open. Under a held
	// partition Skips should dwarf Attempts — the proof the redelivery
	// path does not busy-spin through an outage.
	HintAttempts uint64
	HintSkips    uint64
	// AETreeRounds counts ae.tree round trips this node initiated;
	// AETreeNodes the tree nodes those frames compared. A converged tick
	// is exactly one round comparing one node (the root), so these gauge
	// how deep divergence forced the walk.
	AETreeRounds uint64
	AETreeNodes  uint64
	// SessionWaits counts coordinated reads/writes whose session floor
	// was not satisfied by the first state examined (at most one per
	// request); SessionRetries the extra replica re-read rounds spent
	// reaching a floor. Both zero on a converged key — the proof session
	// enforcement is free once replication has caught up.
	SessionWaits   uint64
	SessionRetries uint64

	// Overload plane (PR 10). Shed counts client requests rejected by
	// admission control; QueueDelayP99 is the admission queue sojourn p99
	// in nanoseconds over a sliding window (a gauge, not a counter).
	// Both are filled from the admission.Controller at Stats() time and
	// zero with admission disabled.
	Shed          uint64
	QueueDelayP99 uint64
	// HedgedReads counts extra replica reads launched after the hedge
	// delay; HedgeWins those whose reply completed the read quorum.
	HedgedReads uint64
	HedgeWins   uint64

	// Engine-level store counters, filled from storage.Stats at Stats()
	// time rather than bump-maintained. Engine names the storage engine;
	// the cache/segment and WAL fields are zero without a data directory.
	Engine                 string
	StoreKeys              uint64
	CacheBytes             uint64
	CacheHits, CacheMisses uint64
	Spills, Faults         uint64
	Segments               uint64
	WALAppends             uint64
	Checkpoints            uint64
}

// Node is one replica server.
type Node struct {
	cfg   Config
	store storage.Engine

	// batcher is the per-peer coalescing queue every replica-state push
	// goes through (see batch.go); nil only before New finishes.
	batcher *replBatcher

	// admit sheds client coordinator requests under overload (see
	// Config.MaxInFlight); nil when admission control is disabled.
	admit *admission.Controller

	// rpcCost accounts every completed replica RPC per peer (see
	// hedge.go).
	rpcCost rpcCosts

	// hedgeLat samples replica-read RPC latencies; its p99 derives the
	// hedged-read delay.
	hedgeLat latencyRing

	// repairSem admits background repair goroutines (read repair,
	// post-leave hint re-routing) up to repairConcurrency.
	repairSem chan struct{}

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
	// hints holds undelivered replica states per unreachable peer and
	// key; multiple hints for the same (peer, key) merge via Sync.
	hints map[dot.ID]map[string]core.State
	// suspect maps peers to the end of their failure-suspicion window
	// (set on failed sends, cleared on any successful exchange).
	suspect map[dot.ID]time.Time
	// hintRetry tracks per-peer hint-redelivery failure streaks so a
	// peer that stays unreachable is retried with capped exponential
	// backoff + jitter instead of on every AE tick (see DeliverHints).
	hintRetry map[dot.ID]*retryState
	// departed tombstones members seen leaving, so passive membership
	// gossip (SyncMembership) cannot resurrect them; an explicit re-join
	// announcement clears the tombstone.
	departed map[dot.ID]struct{}
	// closing gates track(): once Close has begun, no new background work
	// may register with the WaitGroup (a bare wg.Add racing Close's
	// wg.Wait is a documented WaitGroup misuse the race detector flags).
	closing bool

	done chan struct{}
	wg   sync.WaitGroup
	stop sync.Once
}

// track registers one unit of background work, unless shutdown has begun.
// Every handler-path `go` statement must pass through here: Close flips
// closing under the same mutex before it waits, so an Add can never race
// the Wait — work either registered before shutdown (and is awaited) or
// observes closing and is skipped.
func (n *Node) track() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closing {
		return false
	}
	n.wg.Add(1)
	return true
}

// New creates a node, registers its RPC handler on the transport, and
// starts the anti-entropy loop if configured. Callers own the ring
// membership (add the node id before serving traffic). With
// Config.DataDir set, the store is opened durably and any pre-crash state
// in the directory is recovered before the node serves a single request,
// so a restarted replica rejoins with its replica id backed by every dot
// it ever durably issued.
func New(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var st storage.Engine
	if cfg.DataDir != "" {
		var err error
		st, err = storage.Open(cfg.Mech, storage.Options{
			Engine: cfg.Engine, Dir: cfg.DataDir,
			Fsync: cfg.Fsync, MemBudget: cfg.MemBudget,
		})
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", cfg.ID, err)
		}
	} else {
		st = storage.NewSharded(cfg.Mech, storage.DefaultShards)
	}
	n := &Node{
		cfg:       cfg,
		store:     st,
		repairSem: make(chan struct{}, repairConcurrency),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		hints:     make(map[dot.ID]map[string]core.State),
		suspect:   make(map[dot.ID]time.Time),
		hintRetry: make(map[dot.ID]*retryState),
		departed:  make(map[dot.ID]struct{}),
		done:      make(chan struct{}),
	}
	if cfg.MaxInFlight > 0 {
		n.admit = admission.New(admission.Config{
			MaxInFlight: cfg.MaxInFlight,
			QueueTarget: cfg.QueueTarget,
		})
	}
	n.batcher = newReplBatcher(n)
	cfg.Transport.Register(cfg.ID, n.Handle)
	if cfg.AntiEntropyInterval > 0 {
		n.wg.Add(1)
		go n.antiEntropyLoop()
	}
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() dot.ID { return n.cfg.ID }

// Store exposes the local storage engine (read-mostly; used by
// experiments to account metadata and drive checkpoints).
func (n *Node) Store() storage.Engine { return n.store }

// Stats returns a snapshot of the node's counters, including the storage
// engine's.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	st := n.stats
	n.mu.Unlock()
	es := n.store.Stats()
	st.Engine = es.Engine
	st.StoreKeys = uint64(es.Keys)
	st.CacheBytes = uint64(es.CacheBytes)
	st.CacheHits = es.CacheHits
	st.CacheMisses = es.CacheMisses
	st.Spills = es.Spills
	st.Faults = es.Faults
	st.Segments = uint64(es.Segments)
	st.WALAppends = es.WALAppends
	st.Checkpoints = es.Checkpoints
	if n.admit != nil {
		as := n.admit.Stats()
		st.Shed = as.Shed
		st.QueueDelayP99 = uint64(as.QueueDelayP99)
	}
	return st
}

// now is the node's wall clock (Config.Now when injected, else
// time.Now). Durations are always measured with the real monotonic
// clock; now() is only for stamps and window arithmetic, where a
// constant per-node skew must be — and is — harmless.
func (n *Node) now() time.Time {
	if n.cfg.Now != nil {
		return n.cfg.Now()
	}
	return time.Now()
}

func (n *Node) bump(f func(*Stats)) {
	n.mu.Lock()
	f(&n.stats)
	n.mu.Unlock()
}

// Close stops background work, waits for it, and closes the store (which
// flushes and closes the WAL on durable nodes).
func (n *Node) Close() error {
	n.stop.Do(func() {
		n.mu.Lock()
		n.closing = true
		n.mu.Unlock()
		close(n.done)
	})
	n.wg.Wait()
	return n.store.Close()
}

// ---------------------------------------------------------------------------
// RPC dispatch.
// ---------------------------------------------------------------------------

// Handle is the node's transport handler.
func (n *Node) Handle(ctx context.Context, from dot.ID, req transport.Request) transport.Response {
	switch req.Method {
	case MethodGet:
		return n.handleGet(ctx, req.Body)
	case MethodPut:
		return n.handlePut(ctx, from, req.Body)
	case MethodReplGet:
		return n.handleReplGet(req.Body)
	case MethodReplBatch:
		return n.handleReplBatch(req.Body)
	case MethodAETree:
		return n.handleAETree(req.Body)
	case MethodStats:
		return n.handleStats()
	case MethodJoin:
		return n.handleJoin(req.Body)
	case MethodLeave:
		return n.handleLeave(req.Body)
	default:
		return transport.Response{Err: fmt.Sprintf("unknown method %q", req.Method)}
	}
}

func fail(err error) transport.Response {
	return transport.Response{Err: err.Error()}
}

// The request path reuses codec's shared writer pool so steady-state puts
// and gets don't allocate a fresh writer (and its growth doublings) per
// RPC. A request body encoded into a pooled writer is handed to Send and
// the writer is returned only after Send returns: Send copies the body
// into its frame and keeps no reference to it. Encoded bodies that
// outlive the call are copied out at their exact size.
func getWriter() *codec.Writer  { return codec.GetPooledWriter() }
func putWriter(w *codec.Writer) { codec.PutPooledWriter(w) }

// ---------------------------------------------------------------------------
// Client GET path.
// ---------------------------------------------------------------------------

// EncodeGetRequest builds a MethodGet body: the key plus the request's
// read options (consistency level, not-found rule, session floor). The
// returned slice is an exact-size copy owned by the caller; senders that
// can return a pooled writer after Send use WriteGetRequest instead.
func EncodeGetRequest(m core.Mechanism, key string, opts ReadOptions) []byte {
	w := getWriter()
	defer putWriter(w)
	WriteGetRequest(w, m, key, opts)
	return bytes.Clone(w.Bytes())
}

// WriteGetRequest appends EncodeGetRequest's body to w.
func WriteGetRequest(w *codec.Writer, m core.Mechanism, key string, opts ReadOptions) {
	w.String(key)
	EncodeReadOptions(w, m, opts)
}

// EncodeReplGetRequest builds a MethodReplGet body. Replica-internal
// fetches are options-free: they always read exactly one replica's local
// state.
func EncodeReplGetRequest(key string) []byte {
	w := getWriter()
	defer putWriter(w)
	writeReplGetRequest(w, key)
	return bytes.Clone(w.Bytes())
}

func writeReplGetRequest(w *codec.Writer, key string) { w.String(key) }

// EncodeReadResult encodes sibling values plus mechanism context — the
// body of get and put responses. The scratch writer is pooled; the
// returned slice is an exact-size copy owned by the caller.
func EncodeReadResult(m core.Mechanism, rr core.ReadResult) []byte {
	w := getWriter()
	defer putWriter(w)
	w.Uvarint(uint64(len(rr.Values)))
	for _, v := range rr.Values {
		w.BytesField(v)
	}
	m.EncodeContext(w, rr.Ctx)
	return bytes.Clone(w.Bytes())
}

// DecodeReadResult parses a body built by EncodeReadResult.
func DecodeReadResult(m core.Mechanism, body []byte) (core.ReadResult, error) {
	r := codec.NewReader(body)
	nv := r.Uvarint()
	if r.Err() != nil {
		return core.ReadResult{}, r.Err()
	}
	if nv > uint64(r.Remaining()) {
		return core.ReadResult{}, codec.ErrCorrupt
	}
	vals := make([][]byte, 0, nv)
	for i := uint64(0); i < nv; i++ {
		vals = append(vals, r.BytesField())
	}
	ctx, err := m.DecodeContext(r)
	if err != nil {
		return core.ReadResult{}, err
	}
	r.ExpectEOF()
	if r.Err() != nil {
		return core.ReadResult{}, r.Err()
	}
	return core.ReadResult{Values: vals, Ctx: ctx}, nil
}

func (n *Node) handleGet(ctx context.Context, body []byte) transport.Response {
	r := codec.NewReader(body)
	key := r.String()
	if r.Err() != nil {
		return fail(r.Err())
	}
	opts, err := DecodeReadOptions(n.cfg.Mech, r)
	if err != nil {
		return fail(err)
	}
	r.ExpectEOF()
	if r.Err() != nil {
		return fail(r.Err())
	}
	if n.admit != nil {
		release, aerr := n.admit.Acquire(ctx)
		if aerr != nil {
			if errors.Is(aerr, admission.ErrOverload) {
				return fail(fmt.Errorf("%w (node %s)", ErrOverload, n.cfg.ID))
			}
			return fail(aerr)
		}
		defer release()
	}
	n.bump(func(s *Stats) { s.ClientGets++ })
	rr, err := n.CoordinateGet(ctx, key, opts)
	if err != nil {
		return fail(err)
	}
	return transport.Response{Body: EncodeReadResult(n.cfg.Mech, rr)}
}

// CoordinateGet performs the coordinator-side read: merge replica states
// (including the local one when the node owns the key) until the request's
// effective read quorum is met, read-repair divergent replicas, and return
// values plus causal context. If this node is not in the key's preference
// list the request is forwarded — options and all.
//
// The effective quorum comes from opts (level or explicit R override),
// defaulting to Config.R. At level one against a key whose local state
// already satisfies the session floor, the read is answered from the local
// snapshot with zero replica round trips. A session floor that the first
// merge round does not reach escalates to awaitFloor: re-read the replicas
// with backoff until the merged context dominates the floor or the request
// deadline expires.
//
// The returned values may be the local store's own slices (states are
// shared, not copied; see core.Mechanism): callers must not mutate them.
func (n *Node) CoordinateGet(ctx context.Context, key string, opts ReadOptions) (core.ReadResult, error) {
	pref := n.cfg.Ring.Preference(key, n.cfg.N)
	if len(pref) == 0 {
		return core.ReadResult{}, errors.New("node: empty ring")
	}
	if !containsID(pref, n.cfg.ID) {
		return n.forwardGet(ctx, pref[0], key, opts)
	}
	cctx, cancel := context.WithTimeout(ctx, n.cfg.Timeout)
	defer cancel()
	need := resolveQuorum(opts.Level, opts.R, n.cfg.R, n.cfg.N, len(pref))

	merged, _ := n.store.Snapshot(key)
	// Divergence is judged against this snapshot, not the live store: a
	// concurrent local put landing between here and the reply loop must
	// not make in-sync peers look divergent (or a diverged peer look
	// converged). HashState(nil) is 0, matching KeyHash for missing keys.
	localHash := storage.HashState(n.cfg.Mech, merged)
	if merged == nil {
		merged = n.cfg.Mech.NewState()
	}
	anyState := localHash != 0
	waited := false

	// Level-one fast path: the request *explicitly* asked for a single
	// replica, and the local snapshot alone is a quorum. Serve it without
	// touching a peer unless the strict not-found rule needs a wider look,
	// or the session floor is not yet satisfied locally (then the fan-out
	// below is the first escalation round). A configured default of R=1
	// deliberately does not take this path: pre-options deployments with
	// R=1 still merged every reachable replica per read, and a zero
	// ReadOptions must reproduce that behaviour exactly.
	if (opts.Level == LevelOne || opts.R == 1) && need == 1 && (anyState || opts.NotFoundOK) {
		ok, err := n.floorSatisfied(merged, opts.Session)
		if err != nil {
			return core.ReadResult{}, err
		}
		if ok {
			return n.cfg.Mech.Read(merged), nil
		}
		waited = true
		n.bump(func(s *Stats) { s.SessionWaits++ })
	}

	acks := 1 // local read
	type reply struct {
		peer  dot.ID
		state core.State
		found bool
		err   error
	}
	peers := withoutID(pref, n.cfg.ID)
	ch := make(chan reply, len(peers))
	launch := func(p dot.ID) {
		go func() {
			st, found, err := n.replGet(cctx, p, key)
			ch <- reply{peer: p, state: st, found: found, err: err}
		}()
	}
	divergent := make([]dot.ID, 0, len(peers))
	var missing []dot.ID
	handle := func(rep reply) {
		if rep.err != nil {
			n.bump(func(s *Stats) { s.ReplFailures++ })
			return
		}
		acks++
		if rep.found {
			anyState = true
			merged = n.cfg.Mech.Sync(merged, rep.state)
			// A peer is divergent if its state hash differs from ours; the
			// precise check happens again at repair time via Sync.
			if storage.HashState(n.cfg.Mech, rep.state) != localHash {
				divergent = append(divergent, rep.peer)
			}
		} else {
			missing = append(missing, rep.peer)
		}
	}
	if n.cfg.HedgedReads && need > 1 && need-1 < len(peers) {
		// Hedged quorum read: contact need-1 replicas (healthy ones
		// first), and if quorum hasn't been met after the p99-derived
		// hedge delay, launch ONE extra preference-list replica. Return
		// at quorum; stragglers are cancelled by the deferred cctx cancel
		// (their replies land in the buffered channel and are dropped).
		// A failed reply frees its slot immediately — failures hedge for
		// free. Peers never contacted are never judged divergent, and
		// anti-entropy covers whatever a quorum-exit read didn't merge.
		ordered := n.orderHealthyFirst(peers)
		next, outstanding := 0, 0
		launchNext := func() {
			if next < len(ordered) {
				launch(ordered[next])
				next++
				outstanding++
			}
		}
		for i := 0; i < need-1; i++ {
			launchNext()
		}
		hedge := time.NewTimer(n.hedgeDelay())
		defer hedge.Stop()
		hedgedAt := -1 // index into ordered of the hedge launch, if any
		for acks < need && outstanding > 0 {
			select {
			case rep := <-ch:
				outstanding--
				wasErr := rep.err != nil
				fromHedge := hedgedAt >= 0 && rep.peer == ordered[hedgedAt]
				handle(rep)
				if wasErr {
					launchNext()
				} else if fromHedge && acks >= need {
					n.bump(func(s *Stats) { s.HedgeWins++ })
				}
			case <-hedge.C:
				if hedgedAt < 0 && next < len(ordered) {
					hedgedAt = next
					launchNext()
					n.bump(func(s *Stats) { s.HedgedReads++ })
				}
			case <-cctx.Done():
				outstanding = 0
			}
		}
	} else {
		for _, p := range peers {
			launch(p)
		}
		for range peers {
			handle(<-ch)
		}
	}
	// Peers missing the key are divergent only if *someone* holds state
	// for it (then repair populates them). When every replica is missing
	// it, the read is a miss and must stay a pure no-op: treating mutual
	// absence as divergence would make every absent-key read install
	// empty states (and WAL records, and repair pushes) on all replicas.
	if anyState {
		divergent = append(divergent, missing...)
	}
	if acks < need {
		n.bump(func(s *Stats) { s.QuorumFailures++ })
		return core.ReadResult{}, fmt.Errorf("node: read quorum not reached: %d/%d", acks, need)
	}
	// Session floor: the merged view must dominate what the session has
	// already seen; otherwise the missing causal past is still in flight
	// (replication outlives requests) and awaitFloor polls for it.
	if ok, err := n.floorSatisfied(merged, opts.Session); err != nil {
		return core.ReadResult{}, err
	} else if !ok {
		if !waited {
			n.bump(func(s *Stats) { s.SessionWaits++ })
		}
		var err error
		if merged, err = n.awaitFloor(cctx, key, merged, opts.Session, peers); err != nil {
			return core.ReadResult{}, err
		}
		anyState = anyState || n.cfg.Mech.Siblings(merged) > 0
		divergent = peers // the floor round trips superseded the hash verdicts
	}
	if !anyState && !opts.NotFoundOK {
		return core.ReadResult{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	// Fold the merged view back into the local store so the coordinator
	// serves monotone reads. When every peer matched the local hash the
	// merge is a no-op and is skipped entirely — on durable stores this is
	// what keeps steady-state reads from appending to the WAL. A fold that
	// cannot persist (WAL failure) does not fail the read: the client still
	// gets the merged view, and monotonicity re-establishes via the next
	// exchange.
	if len(divergent) > 0 {
		_ = n.store.SyncKey(key, merged)
	}
	if n.cfg.ReadRepair && len(divergent) > 0 {
		n.repairAsync(key, merged, divergent)
	}
	return n.cfg.Mech.Read(merged), nil
}

// floorSatisfied reports whether st's read context dominates the session
// floor. A nil floor is always satisfied.
func (n *Node) floorSatisfied(st core.State, floor core.Context) (bool, error) {
	if floor == nil {
		return true, nil
	}
	return n.cfg.Mech.DescendsContext(n.cfg.Mech.Read(st).Ctx, floor)
}

// Session-floor poll backoff: after a merge round misses the floor, the
// coordinator sleeps before re-reading the replicas — the missing causal
// past is replication in flight, and an immediate retry would mostly
// re-observe the same states.
const (
	sessionPollBase = time.Millisecond
	sessionPollMax  = 50 * time.Millisecond
)

// awaitFloor re-reads the key's replicas until the merged state's context
// dominates the session floor, or ctx expires. Called after a first merge
// round has already failed the floor check (the caller counts the
// SessionWait); every extra round counts one Stats.SessionRetries.
func (n *Node) awaitFloor(ctx context.Context, key string, merged core.State, floor core.Context, peers []dot.ID) (core.State, error) {
	// One reusable timer across rounds: time.After in a poll loop leaves
	// every fired-or-not timer allocated until expiry, which under a
	// cancellation storm (overload sheds, client timeouts) accumulates.
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for round := 0; ; round++ {
		d := sessionPollBase << min(round, 10)
		if d > sessionPollMax {
			d = sessionPollMax
		}
		timer.Reset(d)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("node: session floor not reached for %q: %w", key, ctx.Err())
		case <-timer.C:
		}
		n.bump(func(s *Stats) { s.SessionRetries++ })
		// The local store may have advanced independently (a racing put,
		// a replica push, hint delivery) — fold it in before the fan-out.
		if st, ok := n.store.Snapshot(key); ok {
			merged = n.cfg.Mech.Sync(merged, st)
		}
		for _, p := range peers {
			st, found, err := n.replGet(ctx, p, key)
			if err != nil {
				n.bump(func(s *Stats) { s.ReplFailures++ })
				continue
			}
			if found {
				merged = n.cfg.Mech.Sync(merged, st)
			}
		}
		ok, err := n.floorSatisfied(merged, floor)
		if err != nil {
			return nil, err
		}
		if ok {
			return merged, nil
		}
	}
}

func (n *Node) forwardGet(ctx context.Context, to dot.ID, key string, opts ReadOptions) (core.ReadResult, error) {
	n.bump(func(s *Stats) { s.Forwards++ })
	cctx, cancel := context.WithTimeout(ctx, n.cfg.Timeout)
	defer cancel()
	w := getWriter()
	defer putWriter(w)
	WriteGetRequest(w, n.cfg.Mech, key, opts)
	resp, err := n.cfg.Transport.Send(cctx, n.cfg.ID, to, transport.Request{Method: MethodGet, Body: w.Bytes()})
	if err != nil {
		return core.ReadResult{}, fmt.Errorf("node: forward get to %s: %w", to, err)
	}
	if aerr := transport.AppError(resp); aerr != nil {
		return core.ReadResult{}, aerr
	}
	return DecodeReadResult(n.cfg.Mech, resp.Body)
}

// admitBackground admits one background repair/redelivery task through
// the bounded pool and runs it in a tracked goroutine with a node-timeout
// context. Each such task can hang for the full timeout on a dead peer,
// so an uncapped fan-out would accumulate goroutines without bound; at
// the cap (or once shutdown has begun) the task is shed and counted in
// Stats.RepairsDropped — anti-entropy reconverges whatever it would have
// fixed.
func (n *Node) admitBackground(run func(ctx context.Context)) bool {
	select {
	case n.repairSem <- struct{}{}:
	default:
		n.bump(func(s *Stats) { s.RepairsDropped++ })
		return false
	}
	if !n.track() {
		<-n.repairSem
		return false
	}
	go func() {
		defer n.wg.Done()
		defer func() { <-n.repairSem }()
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.Timeout)
		defer cancel()
		run(ctx)
	}()
	return true
}

// repairAsync pushes the merged state to divergent replicas in the
// background, through the bounded pool above.
func (n *Node) repairAsync(key string, merged core.State, peers []dot.ID) {
	n.admitBackground(func(ctx context.Context) {
		for _, p := range peers {
			select {
			case <-n.done:
				return
			default:
			}
			if err := n.batcher.push(ctx, p, key, merged); err == nil {
				n.bump(func(s *Stats) { s.ReadRepairs++ })
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Client PUT path.
// ---------------------------------------------------------------------------

// EncodePutRequest builds a MethodPut body: key, writer identity, value,
// then the request's write options (level, causal context, session floor).
// The returned slice is an exact-size copy owned by the caller; senders
// that can return a pooled writer after Send use WritePutRequest instead.
func EncodePutRequest(m core.Mechanism, key string, value []byte, client dot.ID, opts WriteOptions) []byte {
	w := getWriter()
	defer putWriter(w)
	WritePutRequest(w, m, key, value, client, opts)
	return bytes.Clone(w.Bytes())
}

// WritePutRequest appends EncodePutRequest's body to w.
func WritePutRequest(w *codec.Writer, m core.Mechanism, key string, value []byte, client dot.ID, opts WriteOptions) {
	w.String(key)
	w.String(string(client))
	w.BytesField(value)
	EncodeWriteOptions(w, m, opts)
}

func (n *Node) handlePut(ctx context.Context, from dot.ID, body []byte) transport.Response {
	r := codec.NewReader(body)
	key := r.String()
	client := dot.ID(r.String())
	value := r.BytesField()
	if r.Err() != nil {
		return fail(r.Err())
	}
	opts, err := DecodeWriteOptions(n.cfg.Mech, r)
	if err != nil {
		return fail(err)
	}
	r.ExpectEOF()
	if r.Err() != nil {
		return fail(r.Err())
	}
	if client == "" {
		client = from
	}
	if n.admit != nil {
		release, aerr := n.admit.Acquire(ctx)
		if aerr != nil {
			if errors.Is(aerr, admission.ErrOverload) {
				return fail(fmt.Errorf("%w (node %s)", ErrOverload, n.cfg.ID))
			}
			return fail(aerr)
		}
		defer release()
	}
	n.bump(func(s *Stats) { s.ClientPuts++ })
	rr, err := n.CoordinatePut(ctx, key, value, client, opts)
	if err != nil {
		return fail(err)
	}
	return transport.Response{Body: EncodeReadResult(n.cfg.Mech, rr)}
}

// Hint-redelivery backoff shape: after k consecutive all-failed
// redelivery rounds to a peer, further rounds to it are suppressed for
// roughly hintBackoffBase<<(k-1), capped at hintBackoffMax. The cap is
// deliberately short of the mux's 2s dial cap: hints are the convergence
// debt of a partition, and WaitHintsDrained deadlines budget for at most
// one cap-length wait after heal.
const (
	hintBackoffBase = 10 * time.Millisecond
	hintBackoffMax  = 500 * time.Millisecond
)

// retryState is one peer's consecutive-failure streak and the end of its
// current suppression window.
type retryState struct {
	fails int
	until time.Time
}

// backoffFor samples the equal-jitter exponential backoff for the k-th
// consecutive failure (k ≥ 1): uniform in [d/2, d] where d is
// base<<(k-1) capped at max. Jitter decorrelates retry storms — without
// it every peer that failed together retries together, which against a
// just-healed node is a self-inflicted thundering herd. Called with n.mu
// held (uses n.rng).
func (n *Node) backoffFor(k int, base, max time.Duration) time.Duration {
	d := base << min(k-1, 20)
	if d <= 0 || d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(n.rng.Int63n(int64(half)+1))
}

// errSuspected marks a replica skipped because it is inside its failure
// suspicion window — treated like any other replication failure.
var errSuspected = errors.New("node: peer suspected down")

// errShuttingDown marks work refused because Close has begun.
var errShuttingDown = errors.New("node: shutting down")

// CoordinatePut applies a client write locally, replicates the resulting
// state to the other preference-list members, and waits for the write
// quorum resolved from opts (level or explicit W override, defaulting to
// Config.W). It returns the post-write read result (Riak's return_body).
// A session floor in opts is enforced before the write applies: the
// coordinator pulls the key's replicas until its state dominates the
// floor, so a session's write can never causally precede its own reads.
//
// With SloppyQuorum enabled, a preference-list member that is suspected
// or unreachable does not cost the write its ack: the coordinator extends
// down the ring past the preference list, stores the state on the first
// healthy fallback (each failed home replica claims a distinct fallback)
// and keeps a hint for the home replica, which hint delivery or
// anti-entropy later reconciles — Dynamo's sloppy quorum + hinted
// handoff discipline.
func (n *Node) CoordinatePut(ctx context.Context, key string, value []byte, client dot.ID, opts WriteOptions) (core.ReadResult, error) {
	pref := n.cfg.Ring.Preference(key, n.cfg.N)
	if len(pref) == 0 {
		return core.ReadResult{}, errors.New("node: empty ring")
	}
	if !containsID(pref, n.cfg.ID) {
		return n.forwardPut(ctx, pref[0], key, value, client, opts)
	}
	wctx := opts.Context
	if wctx == nil {
		wctx = n.cfg.Mech.EmptyContext()
	}
	if opts.Session != nil {
		local, _ := n.store.Snapshot(key)
		if local == nil {
			local = n.cfg.Mech.NewState()
		}
		ok, err := n.floorSatisfied(local, opts.Session)
		if err != nil {
			return core.ReadResult{}, err
		}
		if !ok {
			n.bump(func(s *Stats) { s.SessionWaits++ })
			fctx, fcancel := context.WithTimeout(ctx, n.cfg.Timeout)
			merged, err := n.awaitFloor(fctx, key, local, opts.Session, withoutID(pref, n.cfg.ID))
			fcancel()
			if err != nil {
				return core.ReadResult{}, err
			}
			// The floor state must be applied (durably) before the write:
			// the write's dot has to causally follow it on this replica.
			if err := n.store.SyncKey(key, merged); err != nil {
				return core.ReadResult{}, err
			}
		}
	}
	rr, err := n.store.Put(key, wctx, value, core.WriteInfo{
		Server: n.cfg.ID, Client: client, Stamp: n.now().UnixNano(),
	})
	if err != nil {
		return core.ReadResult{}, err
	}
	state, _ := n.store.Snapshot(key)
	peers := withoutID(pref, n.cfg.ID)

	// Fallback candidates: the ring members past the preference list, in
	// ring order from the key. Claimed one at a time so two failed home
	// replicas never share a fallback.
	var claimFallback func() (dot.ID, bool)
	if n.cfg.SloppyQuorum {
		ext := withoutID(n.cfg.Ring.Preference(key, n.cfg.Ring.Size()), n.cfg.ID)
		fallbacks := ext[min(len(peers), len(ext)):]
		var fbMu sync.Mutex
		next := 0
		claimFallback = func() (dot.ID, bool) {
			fbMu.Lock()
			defer fbMu.Unlock()
			if next >= len(fallbacks) {
				return "", false
			}
			fb := fallbacks[next]
			next++
			return fb, true
		}
	}

	ch := make(chan error, len(peers))
	for _, p := range peers {
		p := p
		// Replication outlives the request: once the write quorum is met
		// the remaining replicas still receive the state (bounded by the
		// node timeout and tracked for shutdown) — the Dynamo-style
		// "best effort to N, ack at W" discipline. Unreachable replicas
		// get a hint for later redelivery when hinted handoff is on.
		if !n.track() {
			// Shutting down: the replica RPC is never sent, which must
			// still count against the quorum wait below.
			ch <- errShuttingDown
			continue
		}
		go func() {
			defer n.wg.Done()
			rctx, rcancel := context.WithTimeout(context.Background(), n.cfg.Timeout)
			defer rcancel()
			err := errSuspected
			if !n.Suspected(p) {
				err = n.batcher.push(rctx, p, key, state)
			}
			if err != nil {
				n.bump(func(s *Stats) { s.ReplFailures++ })
				if n.cfg.HintedHandoff {
					n.storeHint(p, key, state)
				}
				for claimFallback != nil {
					fb, ok := claimFallback()
					if !ok {
						break
					}
					if n.Suspected(fb) {
						continue
					}
					// Fresh timeout budget: a home replica that failed by
					// timing out has exhausted rctx, and the fallback must
					// not inherit its dead deadline.
					fctx, fcancel := context.WithTimeout(context.Background(), n.cfg.Timeout)
					ferr := n.batcher.push(fctx, fb, key, state)
					fcancel()
					if ferr == nil {
						n.bump(func(s *Stats) { s.SloppyAcks++ })
						err = nil
						break
					}
					n.bump(func(s *Stats) { s.ReplFailures++ })
				}
			}
			ch <- err
		}()
	}
	need := resolveQuorum(opts.Level, opts.W, n.cfg.W, n.cfg.N, len(pref))
	acks := 1 // local write
	for range peers {
		if err := <-ch; err == nil {
			acks++
		}
		if acks >= need {
			break
		}
	}
	if acks < need {
		n.bump(func(s *Stats) { s.QuorumFailures++ })
		return core.ReadResult{}, fmt.Errorf("node: write quorum not reached: %d/%d", acks, need)
	}
	return rr, nil
}

// clampQuorum bounds a configured quorum by the preference-list size, so
// a cluster smaller than N (a bootstrapping single node, or one that
// shrank) stays operable: quorums are over the replicas that exist and
// tighten automatically as membership grows toward N.
func clampQuorum(q, prefLen int) int {
	if q > prefLen {
		return prefLen
	}
	return q
}

// Suspected reports whether peer is inside its failure-suspicion window.
func (n *Node) Suspected(peer dot.ID) bool {
	if n.cfg.SuspicionWindow <= 0 {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	until, ok := n.suspect[peer]
	if !ok {
		return false
	}
	if n.now().After(until) {
		delete(n.suspect, peer)
		return false
	}
	return true
}

// noteSendFailure starts (or extends) a peer's suspicion window after a
// transport-level send failure.
func (n *Node) noteSendFailure(peer dot.ID) {
	if n.cfg.SuspicionWindow <= 0 {
		return
	}
	n.mu.Lock()
	n.suspect[peer] = n.now().Add(n.cfg.SuspicionWindow)
	n.mu.Unlock()
}

// notePeerOK clears a peer's suspicion after any successful exchange.
func (n *Node) notePeerOK(peer dot.ID) {
	if n.cfg.SuspicionWindow <= 0 {
		return
	}
	n.mu.Lock()
	delete(n.suspect, peer)
	n.mu.Unlock()
}

func (n *Node) forwardPut(ctx context.Context, to dot.ID, key string, value []byte, client dot.ID, opts WriteOptions) (core.ReadResult, error) {
	n.bump(func(s *Stats) { s.Forwards++ })
	cctx, cancel := context.WithTimeout(ctx, n.cfg.Timeout)
	defer cancel()
	w := getWriter()
	defer putWriter(w)
	WritePutRequest(w, n.cfg.Mech, key, value, client, opts)
	resp, err := n.cfg.Transport.Send(cctx, n.cfg.ID, to, transport.Request{Method: MethodPut, Body: w.Bytes()})
	if err != nil {
		return core.ReadResult{}, fmt.Errorf("node: forward put to %s: %w", to, err)
	}
	if aerr := transport.AppError(resp); aerr != nil {
		return core.ReadResult{}, aerr
	}
	return DecodeReadResult(n.cfg.Mech, resp.Body)
}

// ---------------------------------------------------------------------------
// Replica-internal RPCs.
// ---------------------------------------------------------------------------

func (n *Node) replGet(ctx context.Context, peer dot.ID, key string) (core.State, bool, error) {
	w := getWriter()
	defer putWriter(w)
	writeReplGetRequest(w, key)
	start := time.Now()
	resp, err := n.cfg.Transport.Send(ctx, n.cfg.ID, peer, transport.Request{Method: MethodReplGet, Body: w.Bytes()})
	dur := time.Since(start)
	n.rpcCost.record(peer, dur)
	if err != nil {
		n.noteSendFailure(peer)
		return nil, false, err
	}
	n.notePeerOK(peer)
	n.hedgeLat.record(dur)
	if aerr := transport.AppError(resp); aerr != nil {
		return nil, false, aerr
	}
	r := codec.NewReader(resp.Body)
	found := r.Bool()
	if !found {
		return nil, false, r.Err()
	}
	st, err := n.cfg.Mech.DecodeState(r)
	if err != nil {
		return nil, false, err
	}
	return st, true, nil
}

func (n *Node) handleReplGet(body []byte) transport.Response {
	r := codec.NewReader(body)
	key := r.String()
	if r.Err() != nil {
		return fail(r.Err())
	}
	n.bump(func(s *Stats) { s.ReplGets++ })
	w := getWriter()
	defer putWriter(w)
	w.Bool(true)
	if !n.store.EncodeKey(key, w) {
		w.Truncate(0)
		w.Bool(false)
	}
	return transport.Response{Body: bytes.Clone(w.Bytes())}
}

// statsFields returns a pointer to every uint64 counter of s in the one
// canonical wire order shared by EncodeStats and DecodeStats. Keeping a
// single table is what makes encode/decode drift impossible: a new Stats
// field is either listed here (and round-trips) or the regression test
// in stats_wire_test.go fails the build. Append new fields at the end.
func statsFields(s *Stats) []*uint64 {
	return []*uint64{
		&s.ClientGets, &s.ClientPuts, &s.ReplGets, &s.ReplPuts,
		&s.ReadRepairs, &s.AERounds, &s.QuorumFailures, &s.Forwards,
		&s.HintsStored, &s.HintsDelivered, &s.ReplFailures, &s.SloppyAcks,
		&s.HandoffKeys, &s.RepairsDropped, &s.ReplBatches, &s.BatchedKeys,
		&s.AERepairFailures, &s.HintAttempts, &s.HintSkips,
		&s.AETreeRounds, &s.AETreeNodes, &s.SessionWaits, &s.SessionRetries,
		&s.StoreKeys, &s.CacheBytes, &s.CacheHits, &s.CacheMisses,
		&s.Spills, &s.Faults, &s.Segments, &s.WALAppends, &s.Checkpoints,
		&s.Shed, &s.QueueDelayP99, &s.HedgedReads, &s.HedgeWins,
	}
}

// EncodeStats builds the MethodStats response body: the engine name, then
// every counter from the shared field table as a uvarint.
func EncodeStats(st Stats) []byte {
	w := codec.NewWriter(128)
	w.String(st.Engine)
	for _, p := range statsFields(&st) {
		w.Uvarint(*p)
	}
	return w.Bytes()
}

func (n *Node) handleStats() transport.Response {
	return transport.Response{Body: EncodeStats(n.Stats())}
}

// DecodeStats parses a MethodStats response body.
func DecodeStats(body []byte) (Stats, error) {
	r := codec.NewReader(body)
	var st Stats
	st.Engine = r.String()
	for _, p := range statsFields(&st) {
		*p = r.Uvarint()
	}
	r.ExpectEOF()
	return st, r.Err()
}

// ---------------------------------------------------------------------------
// Anti-entropy.
// ---------------------------------------------------------------------------

func (n *Node) antiEntropyLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
			n.runAntiEntropyOnce()
		}
	}
}

// runAntiEntropyOnce exchanges digests with one random peer and reconciles
// every differing key in both directions.
func (n *Node) runAntiEntropyOnce() {
	members := n.cfg.Ring.Members()
	peers := withoutID(members, n.cfg.ID)
	if len(peers) == 0 {
		return
	}
	// Prefer partners outside their failure-suspicion window: through a
	// partition, a blind random pick wastes a timeout's worth of every
	// sweep on an unreachable peer, while the reachable side diverges.
	// (Reading Suspected also prunes expired suspicion entries, so a
	// partition-long failure streak cannot leak suspicion state.) If
	// every peer is suspected, fall back to random — suspicion is a
	// hint, not a membership verdict, and AE is how it gets disproven.
	fresh := make([]dot.ID, 0, len(peers))
	for _, p := range peers {
		if !n.Suspected(p) {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) > 0 {
		peers = fresh
	}
	n.mu.Lock()
	peer := peers[n.rng.Intn(len(peers))]
	n.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.Timeout)
	defer cancel()
	// Reconcile membership first: deployments where every process keeps a
	// private ring (the TCP path) converge on joins they missed — e.g.
	// two nodes that joined through different members concurrently.
	_ = n.SyncMembership(ctx, peer)
	if n.cfg.HintedHandoff {
		n.DeliverHints(ctx)
	}
	if err := n.AntiEntropyWith(ctx, peer); err == nil {
		n.bump(func(s *Stats) { s.AERounds++ })
	}
}

// AntiEntropyWith reconciles this node's keys with one peer: a
// root-first walk of the incremental hash tree (aetree.go) that touches
// only diverging subtrees, then a pull and push of the diverging keys.
func (n *Node) AntiEntropyWith(ctx context.Context, peer dot.ID) error {
	return n.antiEntropyTree(ctx, peer)
}

// aeRepairWindow bounds how many reconciliation RPCs one anti-entropy
// sweep keeps in flight at a time. Combined with the per-peer coalescing
// queue, a window of W pending pushes to one peer lands as a handful of
// repl.batch frames instead of W blocking round trips.
const aeRepairWindow = 16

// pushStates pushes this node's current state for each key to peer
// through the batched replication path, aeRepairWindow at a time.
// Per-key failures are independent: each is counted in
// Stats.AERepairFailures and the sweep continues, so one slow or failed
// RPC cannot abort convergence for the rest of the bucket diff (the
// pre-batching code returned on the first error, stranding every
// remaining key until a future round). Returns the failure count.
func (n *Node) pushStates(ctx context.Context, peer dot.ID, keys []string) int {
	if len(keys) == 0 {
		return 0
	}
	sem := make(chan struct{}, aeRepairWindow)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for _, k := range keys {
		if ctx.Err() != nil {
			failed.Add(1)
			continue
		}
		st, ok := n.store.Snapshot(k)
		if !ok {
			continue // key vanished since listing; nothing to push
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(k string, st core.State) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := n.batcher.push(ctx, peer, k, st); err != nil {
				failed.Add(1)
			}
		}(k, st)
	}
	wg.Wait()
	if f := failed.Load(); f > 0 {
		n.bump(func(s *Stats) { s.AERepairFailures += uint64(f) })
	}
	return int(failed.Load())
}

// pullKeys fetches the peer's state for each key and merges it locally —
// pipelined aeRepairWindow at a time, each pull independent: a failed
// RPC counts against Stats.AERepairFailures and the sweep moves on, so
// one slow exchange cannot strand the rest of the diff. Only a local
// persistence failure (SyncKey) is fatal: that is this node's durability
// problem, not the network's.
func (n *Node) pullKeys(ctx context.Context, peer dot.ID, keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	var (
		wg         sync.WaitGroup
		sem        = make(chan struct{}, aeRepairWindow)
		pullFailed atomic.Int64
		syncErr    atomic.Value // first local SyncKey error, fatal
	)
	for _, k := range keys {
		if ctx.Err() != nil {
			pullFailed.Add(1)
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			defer func() { <-sem }()
			st, found, err := n.replGet(ctx, peer, k)
			if err != nil {
				pullFailed.Add(1)
				return
			}
			if found {
				if err := n.store.SyncKey(k, st); err != nil {
					syncErr.CompareAndSwap(nil, err)
				}
			}
		}(k)
	}
	wg.Wait()
	if f := pullFailed.Load(); f > 0 {
		n.bump(func(s *Stats) { s.AERepairFailures += uint64(f) })
	}
	err, _ := syncErr.Load().(error)
	return err
}

// ---------------------------------------------------------------------------
// Hinted handoff.
// ---------------------------------------------------------------------------

// hintItem is one pending (peer, key, state) hint snapshotted for a
// redelivery round.
type hintItem struct {
	peer  dot.ID
	key   string
	state core.State
}

// storeHint records state for redelivery to an unreachable peer, merging
// with any hint already pending for the same (peer, key).
func (n *Node) storeHint(peer dot.ID, key string, st core.State) {
	n.mu.Lock()
	defer n.mu.Unlock()
	perPeer, ok := n.hints[peer]
	if !ok {
		perPeer = make(map[string]core.State)
		n.hints[peer] = perPeer
	}
	if prev, ok := perPeer[key]; ok {
		perPeer[key] = n.cfg.Mech.Sync(prev, st)
	} else {
		perPeer[key] = st
	}
	n.stats.HintsStored++
}

// PendingHints reports the number of undelivered (peer, key) hints.
func (n *Node) PendingHints() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, perPeer := range n.hints {
		total += len(perPeer)
	}
	return total
}

// DeliverHints attempts to redeliver all pending hints; hints that reach
// their peer are dropped, the rest are kept for the next attempt. The
// anti-entropy tick calls this automatically.
//
// A hint addressed to a node that has since left the ring can never be
// delivered directly; it is re-routed to the key's current first owner
// (the departed node's successor for that key) — or folded into the local
// store when this node is that owner — so membership churn drains hints
// instead of stranding them.
func (n *Node) DeliverHints(ctx context.Context) {
	n.mu.Lock()
	var todo []hintItem
	for peer, perPeer := range n.hints {
		for key, st := range perPeer {
			todo = append(todo, hintItem{peer, key, st})
		}
	}
	n.mu.Unlock()
	sort.Slice(todo, func(i, j int) bool {
		if todo[i].peer != todo[j].peer {
			return todo[i].peer < todo[j].peer
		}
		return todo[i].key < todo[j].key
	})
	members := n.cfg.Ring.Members()
	// retire drops a hint once its exact state has been delivered (or
	// folded locally). A newer hint may have merged in since the
	// snapshot; drop the entry only if it is still exactly what was
	// delivered, and count a delivery only when the hint is actually
	// retired — a superseded hint stays pending and will be counted when
	// its newer state lands.
	retire := func(it hintItem) {
		n.mu.Lock()
		if perPeer, ok := n.hints[it.peer]; ok {
			if cur, ok := perPeer[it.key]; ok && storage.EncodeStateEqual(n.cfg.Mech, cur, it.state) {
				delete(perPeer, it.key)
				if len(perPeer) == 0 {
					delete(n.hints, it.peer)
				}
				n.stats.HintsDelivered++
			}
		}
		n.mu.Unlock()
	}
	// Redeliveries are pipelined aeRepairWindow at a time through the
	// batched replication path, so a backlog of hints for one recovered
	// peer drains as a few repl.batch frames instead of one blocking
	// round trip per key — and one unreachable target cannot stall the
	// hints behind it.
	// Resolve every hint's current target first, so backoff decisions are
	// per destination peer rather than per stale hint address.
	groups := make(map[dot.ID][]hintItem)
	for _, it := range todo {
		target := it.peer
		if !containsID(members, it.peer) {
			target = ""
			for _, owner := range n.cfg.Ring.Preference(it.key, n.cfg.N) {
				if owner != n.cfg.ID {
					target = owner
					break
				}
			}
			if target == "" {
				// This node is the key's only owner now: the hint's state
				// folds into the local store and is retired — unless the
				// fold cannot be persisted, in which case the hint must
				// stay pending.
				if err := n.store.SyncKey(it.key, it.state); err != nil {
					continue
				}
				retire(it)
				continue
			}
		}
		groups[target] = append(groups[target], it)
	}
	targets := make([]dot.ID, 0, len(groups))
	for tgt := range groups {
		targets = append(targets, tgt)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	// Backoff gate: a peer whose previous redelivery rounds all failed is
	// skipped until its suppression window expires, so a partition-long
	// failure streak costs O(log) attempts instead of one per AE tick.
	now := n.now()
	attempt := targets[:0]
	n.mu.Lock()
	for _, tgt := range targets {
		if rs := n.hintRetry[tgt]; rs != nil && now.Before(rs.until) {
			n.stats.HintSkips++
			continue
		}
		n.stats.HintAttempts++
		attempt = append(attempt, tgt)
	}
	n.mu.Unlock()

	// Redeliveries are pipelined aeRepairWindow at a time through the
	// batched replication path, so a backlog of hints for one recovered
	// peer drains as a few repl.batch frames instead of one blocking
	// round trip per key — and one unreachable target cannot stall the
	// hints behind it.
	type outcome struct{ ok, fail atomic.Uint64 }
	outcomes := make(map[dot.ID]*outcome, len(attempt))
	sem := make(chan struct{}, aeRepairWindow)
	var wg sync.WaitGroup
	for _, tgt := range attempt {
		outcomes[tgt] = &outcome{}
		for _, it := range groups[tgt] {
			sem <- struct{}{}
			wg.Add(1)
			go func(it hintItem, target dot.ID, out *outcome) {
				defer wg.Done()
				defer func() { <-sem }()
				if err := n.batcher.push(ctx, target, it.key, it.state); err != nil {
					out.fail.Add(1)
					return
				}
				out.ok.Add(1)
				retire(it)
			}(it, tgt, outcomes[tgt])
		}
	}
	wg.Wait()

	n.mu.Lock()
	for tgt, out := range outcomes {
		if out.ok.Load() > 0 {
			// The peer is reachable again; the streak ends even if some
			// keys failed (those stay pending for the next round).
			delete(n.hintRetry, tgt)
			continue
		}
		if out.fail.Load() == 0 {
			continue // nothing was actually sent (all retired elsewhere)
		}
		rs := n.hintRetry[tgt]
		if rs == nil {
			rs = &retryState{}
			n.hintRetry[tgt] = rs
		}
		rs.fails++
		rs.until = n.now().Add(n.backoffFor(rs.fails, hintBackoffBase, hintBackoffMax))
	}
	n.mu.Unlock()
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func containsID(ids []dot.ID, id dot.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func withoutID(ids []dot.ID, id dot.ID) []dot.ID {
	out := make([]dot.ID, 0, len(ids))
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}
