package sim

// E6 — causal sessions under concurrent read-modify-write: the experiment
// behind per-request consistency levels and session floors. Per key, two
// editors run synchronized RMW rounds — both read, meet at a barrier, then
// put concurrently — through random preference-list owners, so the same
// key is continuously coordinated from different replicas while
// replication is still in flight. The matrix crosses mechanisms with a
// client mode:
//
//   - sessions: editors are cluster.Session clients — the put carries the
//     causal context of the preceding read AND the session floor, so a
//     coordinator that has not yet seen the session's past must catch up
//     (Stats.SessionWaits/SessionRetries) before answering.
//   - blind: editors read (the *intent* to supersede is identical) but put
//     with the empty context — the session-less client every dynamo-style
//     store degrades to when applications drop the vclock.
//
// The oracle is the nemesis one (acked − superseded = expected final
// read). DVV/DVVSet with sessions must come out CLEAN; the server-side VV
// baseline loses one of each pair of racing writes through a shared
// coordinator (lost updates), and blind DVV writes supersede nothing so
// every overwritten value survives as a sibling (false conflicts).
//
// The run ends with the level-one probe: on the converged cluster a
// session client reads its key at LevelOne; the deltas of SessionWaits
// and ReplGets across every node must be exactly zero — session
// enforcement and the level-one fast path together cost no replica round
// trips once replication has caught up. A nonzero delta fails the run
// in-line, not just the verdict column.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/transport"
)

// SessionsConfig parameterises E6.
type SessionsConfig struct {
	Nodes   int
	N, R, W int
	// ReplDelay is a fixed one-way delay injected on every node→node link
	// (client links stay fast). It keeps replication visibly behind the
	// editors, so session floors actually have something to wait for —
	// on a zero-latency transport the floor check would never fire.
	ReplDelay time.Duration
	// ReplDropRate drops that fraction of node→node messages during the
	// workload (cleared before quiescence). Lost replications strand
	// owners behind the editors' sessions, which is what makes the
	// put-side floor visibly wait (SessionWaits/SessionRetries > 0) and
	// lets hinted handoff carry the gap.
	ReplDropRate float64
	// Keys contested keys; each runs Rounds synchronized RMW rounds with
	// two racing editors, then one write-write volley through the key's
	// coordinator (the paper's Figure-1 anomaly, run deterministically).
	Keys   int
	Rounds int
	// ProbeReads is the number of LevelOne session reads in the converged
	// coda whose SessionWaits/ReplGets deltas must be zero.
	ProbeReads int
	RetryLimit int
	Seed       int64
}

// DefaultSessionsConfig is sized to finish in a few seconds under -race.
func DefaultSessionsConfig() SessionsConfig {
	return SessionsConfig{
		Nodes: 5, N: 3, R: 2, W: 2,
		ReplDelay:    500 * time.Microsecond,
		ReplDropRate: 0.20,
		Keys:         6,
		Rounds:       12,
		ProbeReads:   25,
		RetryLimit:   50,
		Seed:         29,
	}
}

// SessionsResult is one (mechanism, mode) row of E6.
type SessionsResult struct {
	Mechanism string
	Mode      string // "sessions" or "blind"

	Acked      int
	Retries    int
	Incomplete int

	// Oracle verdict inputs, as in E4.
	Lost           int
	FalseConflicts int

	// Floor-enforcement accounting summed over every node: how often a
	// coordinator had to wait for the session's causal past, and how many
	// replica re-read rounds that took.
	SessionWaits   uint64
	SessionRetries uint64

	// Level-one probe: reads performed and the cluster-wide deltas they
	// caused. Both deltas must be zero on a converged key.
	ProbeReads    int
	ProbeWaits    uint64
	ProbeReplGets uint64
}

// Clean reports a run with nothing lost, no false conflicts and every
// write acked within its retry budget.
func (r SessionsResult) Clean() bool {
	return r.Incomplete == 0 && r.Lost == 0 && r.FalseConflicts == 0
}

// sessionsCell names one matrix row: a mechanism crossed with a client
// mode.
type sessionsCell struct {
	mech  func() core.Mechanism
	blind bool
}

// RunSessions drives E6 across the matrix and renders the verdict table.
func RunSessions(cfg SessionsConfig) ([]SessionsResult, *stats.Table, error) {
	if cfg.Nodes == 0 {
		cfg = DefaultSessionsConfig()
	}
	cells := []sessionsCell{
		{mech: core.NewDVV},
		{mech: core.NewDVVSet},
		{mech: core.NewServerVV},
		{mech: core.NewDVV, blind: true},
	}
	results := make([]SessionsResult, 0, len(cells))
	for _, cell := range cells {
		res, err := runSessionsOne(cfg, cell)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: sessions %s/%s: %w", res.Mechanism, res.Mode, err)
		}
		results = append(results, res)
	}
	t := stats.NewTable(
		fmt.Sprintf("E6 — causal sessions (seed %d): synchronized RMW races, session floors vs blind writes, level-one probe", cfg.Seed),
		"mechanism", "mode", "acked", "retries", "incomplete", "lost", "false-conflicts",
		"session-waits", "session-retries", "probe-reads", "probe-waits", "probe-replgets", "verdict")
	for _, r := range results {
		verdict := "CLEAN"
		if !r.Clean() {
			verdict = "DIVERGED"
		}
		t.AddRow(r.Mechanism, r.Mode, r.Acked, r.Retries, r.Incomplete, r.Lost, r.FalseConflicts,
			r.SessionWaits, r.SessionRetries, r.ProbeReads, r.ProbeWaits, r.ProbeReplGets, verdict)
	}
	return results, t, nil
}

// sessionsEditor is the per-goroutine editor state: either a Session
// (floored, context-carrying) or a bare Client putting blind.
type sessionsEditor struct {
	sess  *cluster.Session
	cl    *cluster.Client
	blind bool
	empty core.Context
}

func (e *sessionsEditor) get(ctx context.Context, key string) ([][]byte, error) {
	if e.blind {
		vals, _, err := e.cl.GetWith(ctx, key, node.ReadOptions{NotFoundOK: true})
		return vals, err
	}
	vals, _, err := e.sess.Get(ctx, key)
	return vals, err
}

func (e *sessionsEditor) put(ctx context.Context, key string, val []byte) error {
	if e.blind {
		_, err := e.cl.PutWith(ctx, key, val, nil, node.WriteOptions{Context: e.empty})
		return err
	}
	_, err := e.sess.Put(ctx, key, val)
	return err
}

func runSessionsOne(cfg SessionsConfig, cell sessionsCell) (SessionsResult, error) {
	mech := cell.mech()
	res := SessionsResult{Mechanism: mech.Name(), Mode: "sessions"}
	if cell.blind {
		res.Mode = "blind"
	}
	// Node→node links carry a fixed delay so replication trails the
	// editors; client links stay clean. Floors then genuinely wait (the
	// SessionWaits/SessionRetries columns), instead of replication always
	// winning the race on a zero-latency network.
	chaos := transport.NewChaos(transport.NewLoopback(), cfg.Seed*37)
	defer chaos.Close()
	ids := cluster.NodeIDs(cfg.Nodes)
	setNodeLinks := func(f transport.LinkFaults) {
		for _, a := range ids {
			for _, b := range ids {
				if a != b {
					chaos.SetLink(a, b, f)
				}
			}
		}
	}
	setNodeLinks(transport.LinkFaults{Delay: cfg.ReplDelay, DropRate: cfg.ReplDropRate})
	c, err := cluster.New(cluster.Config{
		Mech: mech, Nodes: cfg.Nodes, N: cfg.N, R: cfg.R, W: cfg.W,
		Transport:  chaos,
		ReadRepair: true, HintedHandoff: true,
		Timeout: 2 * time.Second,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return res, err
	}
	defer c.Close()

	newEditor := func(id string, policy cluster.RoutingPolicy) *sessionsEditor {
		e := &sessionsEditor{blind: cell.blind, empty: mech.EmptyContext()}
		if cell.blind {
			e.cl = c.NewClient(dot.ID(id), policy)
		} else {
			e.sess = c.NewSession(dot.ID(id), policy)
		}
		return e
	}

	var acked, retries, incomplete atomic.Int64
	oracles := make([]*keyOracle, cfg.Keys)
	for i := range oracles {
		oracles[i] = newKeyOracle()
	}
	ctx := context.Background()

	// withRetry runs op until it succeeds or the retry budget is spent,
	// reporting whether any attempt failed along the way (the oracle's
	// ghost-sibling excuse).
	withRetry := func(op func() error) (ok, hadFailure bool) {
		for attempt := 0; attempt <= cfg.RetryLimit; attempt++ {
			if attempt > 0 {
				retries.Add(1)
				time.Sleep(time.Duration(attempt) * 100 * time.Microsecond)
			}
			if err := op(); err != nil {
				hadFailure = true
				continue
			}
			return true, hadFailure
		}
		return false, hadFailure
	}

	// Phase 1: synchronized RMW rounds. Per key, two editors routed to
	// random owners; each round both read, then both put concurrently —
	// the reads' results are each writer's supersession intent whether or
	// not the put carries them (that is exactly the sessions/blind split).
	var keysWG sync.WaitGroup
	for k := 0; k < cfg.Keys; k++ {
		k := k
		keysWG.Add(1)
		go func() {
			defer keysWG.Done()
			key := fmt.Sprintf("session-%02d", k)
			eds := [2]*sessionsEditor{
				newEditor(fmt.Sprintf("ed-%02d-0", k), cluster.RouteOwner),
				newEditor(fmt.Sprintf("ed-%02d-1", k), cluster.RouteOwner),
			}
			prev := [2]string{}
			for round := 0; round < cfg.Rounds; round++ {
				var seen [2]map[string]bool
				var phase sync.WaitGroup
				for w := 0; w < 2; w++ {
					w := w
					seen[w] = map[string]bool{}
					if prev[w] != "" {
						seen[w][prev[w]] = true
					}
					phase.Add(1)
					go func() {
						defer phase.Done()
						ok, _ := withRetry(func() error {
							vals, err := eds[w].get(ctx, key)
							if err != nil {
								return err
							}
							for _, v := range vals {
								seen[w][string(v)] = true
							}
							return nil
						})
						if !ok {
							incomplete.Add(1)
						}
					}()
				}
				phase.Wait() // both have read: the puts now race
				for w := 0; w < 2; w++ {
					w := w
					phase.Add(1)
					go func() {
						defer phase.Done()
						val := fmt.Sprintf("k%02d-w%d-r%03d", k, w, round)
						ok, hadFailure := withRetry(func() error {
							return eds[w].put(ctx, key, []byte(val))
						})
						if !ok {
							incomplete.Add(1)
							oracles[k].abandon(val)
							return
						}
						oracles[k].ack(val, seen[w], hadFailure)
						prev[w] = val
						acked.Add(1)
					}()
				}
				phase.Wait()
			}

			// Phase 2 (per key): one deterministic write-write volley
			// through the key's coordinator — both editors re-read, then
			// race their puts through the SAME server. This is the
			// Figure-1 anomaly: the server-side VV's second put advances
			// the coordinator's entry past the first and discards it.
			vols := [2]*sessionsEditor{
				newEditor(fmt.Sprintf("volley-%02d-0", k), cluster.RouteCoordinator),
				newEditor(fmt.Sprintf("volley-%02d-1", k), cluster.RouteCoordinator),
			}
			var volley sync.WaitGroup
			var volleySeen [2]map[string]bool
			for w := 0; w < 2; w++ {
				w := w
				volleySeen[w] = map[string]bool{}
				volley.Add(1)
				go func() {
					defer volley.Done()
					ok, _ := withRetry(func() error {
						vals, err := vols[w].get(ctx, key)
						if err != nil {
							return err
						}
						for _, v := range vals {
							volleySeen[w][string(v)] = true
						}
						return nil
					})
					if !ok {
						incomplete.Add(1)
					}
				}()
			}
			volley.Wait()
			for w := 0; w < 2; w++ {
				w := w
				volley.Add(1)
				go func() {
					defer volley.Done()
					val := fmt.Sprintf("k%02d-volley-%d", k, w)
					ok, hadFailure := withRetry(func() error {
						return vols[w].put(ctx, key, []byte(val))
					})
					if !ok {
						incomplete.Add(1)
						oracles[k].abandon(val)
						return
					}
					oracles[k].ack(val, volleySeen[w], hadFailure)
					acked.Add(1)
				}()
			}
			volley.Wait()
		}()
	}
	keysWG.Wait()
	// Workload done: stop dropping (keep the delay) so hints drain and
	// anti-entropy converges deterministically before the oracle reads.
	setNodeLinks(transport.LinkFaults{Delay: cfg.ReplDelay})

	res.Acked = int(acked.Load())
	res.Retries = int(retries.Load())
	res.Incomplete = int(incomplete.Load())

	// Quiesce: drain hints, anti-entropy every pair twice, so every
	// replica of every key agrees before the oracle reads and the probe.
	dctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for _, n := range c.Nodes {
		if err := n.WaitHintsDrained(dctx); err != nil {
			return res, fmt.Errorf("hints never drained: %w", err)
		}
	}
	for round := 0; round < 2; round++ {
		for _, n := range c.Nodes {
			for _, p := range c.Nodes {
				if n.ID() != p.ID() {
					_ = n.AntiEntropyWith(dctx, p.ID())
				}
			}
		}
	}

	// Oracle: each key's final read equals its expected live set.
	reader := c.NewClient("sessions-verifier", cluster.RouteCoordinator)
	for k := 0; k < cfg.Keys; k++ {
		key := fmt.Sprintf("session-%02d", k)
		vals, err := reader.Get(ctx, key)
		if err != nil {
			return res, fmt.Errorf("final read %s: %w", key, err)
		}
		distinct := map[string]bool{}
		for _, v := range vals {
			distinct[string(v)] = true
		}
		lost, fc := oracles[k].check(distinct)
		res.Lost += lost
		res.FalseConflicts += fc
	}

	sumStats := func() (waits, sessionRetries, replGets uint64) {
		for _, n := range c.Nodes {
			st := n.Stats()
			waits += st.SessionWaits
			sessionRetries += st.SessionRetries
			replGets += st.ReplGets
		}
		return
	}
	res.SessionWaits, res.SessionRetries, _ = sumStats()

	// Level-one probe: a converged session read must be free. The first
	// default-level get establishes the session floor (and folds the
	// merged view into the coordinator); every LevelOne read after it must
	// cause zero SessionWaits and zero repl.gets anywhere in the cluster.
	probe := c.NewSession("sessions-probe", cluster.RouteCoordinator)
	probeKey := "session-00"
	if _, _, err := probe.Get(ctx, probeKey); err != nil {
		return res, fmt.Errorf("probe floor read: %w", err)
	}
	waits0, _, repl0 := sumStats()
	for i := 0; i < cfg.ProbeReads; i++ {
		if _, _, err := probe.GetWith(ctx, probeKey, node.ReadOptions{Level: node.LevelOne, NotFoundOK: true}); err != nil {
			return res, fmt.Errorf("probe read %d: %w", i, err)
		}
	}
	waits1, _, repl1 := sumStats()
	res.ProbeReads = cfg.ProbeReads
	res.ProbeWaits = waits1 - waits0
	res.ProbeReplGets = repl1 - repl0
	if res.ProbeWaits != 0 || res.ProbeReplGets != 0 {
		return res, fmt.Errorf("level-one session reads on a converged key are not free: %d waits, %d repl.gets over %d reads",
			res.ProbeWaits, res.ProbeReplGets, cfg.ProbeReads)
	}
	return res, nil
}
