package sim

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/transport"
)

// NemesisConfig parameterises the E4 partition-convergence experiment: a
// nemesis scheduler drives a seeded fault timeline — asymmetric network
// partition, probabilistic drop/duplication/reorder on node links, and an
// fsync stall on one replica — against a live durable cluster while two
// writers per key race read-modify-write chains from both sides. The
// oracle is a per-key set of acknowledged-and-not-superseded values: after
// heal and quiescence the distinct values of a final read must equal that
// set exactly. DVV and DVVSet must come out CLEAN; the server-side version
// vector baseline must not (it silently discards one of two concurrent
// writes that race through the same coordinator — the lost-update anomaly
// the paper's dots exist to prevent).
type NemesisConfig struct {
	Nodes   int
	N, R, W int
	// Keys is the number of contested keys; each key has exactly two
	// writers racing RMW chains of WritesPerWriter acknowledged writes.
	Keys            int
	WritesPerWriter int
	RetryLimit      int
	SuspicionWindow time.Duration
	Seed            int64

	// Fault timeline, triggered by workload progress: the partition is
	// injected once a quarter of the acked-write budget has landed and
	// healed at three quarters, so a meaningful fraction of the workload
	// runs split-brained.
	//
	// DropRate/DupRate/Reorder apply to every node↔node link while the
	// fault window is open. Duplication stays off client links on
	// purpose: a duplicated client put re-executes with the same causal
	// context and mints a sibling dot the client never learns about, so
	// a late duplicate can resurrect a superseded value — correct DVV
	// behaviour, but indistinguishable from a false conflict to the
	// oracle. Replica traffic is idempotent (states carry their dots),
	// so node-link duplication is both safe and the interesting case.
	DropRate   float64
	DupRate    float64
	Reorder    time.Duration
	FsyncStall time.Duration

	// ClockSkew arms the clock-skew nemesis: node i's wall clock is
	// offset by ±ClockSkew (alternating sign by index, so the cluster
	// spans a 2×ClockSkew spread). Dot-issuance stamps, suspicion
	// windows and hint backoff all run on the skewed clocks. Causality
	// is tracked by (server, counter) dots and must not care — the E4
	// skew variant asserts DVV verdicts stay CLEAN under ±30s.
	ClockSkew time.Duration

	// Fsync as in cluster.Config; the cluster always runs durable (WAL
	// in the write path) so the fsync stall has a victim.
	Fsync bool
}

// DefaultNemesisConfig is sized to finish in a few seconds under -race.
func DefaultNemesisConfig() NemesisConfig {
	return NemesisConfig{
		Nodes: 5, N: 3, R: 2, W: 2,
		Keys: 8, WritesPerWriter: 25, RetryLimit: 600,
		SuspicionWindow: 30 * time.Millisecond,
		Seed:            7,
		DropRate:        0.05,
		DupRate:         0.05,
		Reorder:         2 * time.Millisecond,
		FsyncStall:      500 * time.Microsecond,
		Fsync:           true,
	}
}

// NemesisResult is the outcome of one E4 run for one mechanism.
type NemesisResult struct {
	Mechanism   string
	AckedWrites int
	Retries     int
	Incomplete  int

	// Lost counts expected values (acked, never superseded by a later
	// acked write) missing from the final read; FalseConflicts counts
	// surplus values the final read presented as siblings.
	Lost           int
	FalseConflicts int
	// DuplicateDots, PendingHints and Disagree are convergence oracles:
	// dot uniqueness across replicas, undrained hints, and replicas
	// whose stored state for some key differs from the coordinator
	// majority after the post-heal anti-entropy sweeps.
	DuplicateDots int
	PendingHints  int
	Disagree      int

	// Fault-plane accounting, to prove the timeline actually fired.
	Chaos      transport.ChaosStats
	Stalls     uint64
	SloppyAcks uint64
	HintSkips  uint64
}

// Clean reports a run that proved convergence cleanly: every write acked
// within its retry budget, nothing lost, no false conflicts, no duplicate
// dots, hints drained, replicas agree.
func (r NemesisResult) Clean() bool {
	return r.Incomplete == 0 && r.Lost == 0 && r.FalseConflicts == 0 &&
		r.DuplicateDots == 0 && r.PendingHints == 0 && r.Disagree == 0
}

// Faulted reports whether the nemesis timeline demonstrably fired: the
// partition ate messages and the stalled replica actually stalled.
func (r NemesisResult) Faulted() bool {
	return r.Chaos.Severed > 0 && r.Stalls > 0
}

// RunNemesis drives E4 for each mechanism (default DVV, DVVSet and the
// server-side VV baseline) and renders the oracle table.
func RunNemesis(cfg NemesisConfig, mechs ...core.Mechanism) ([]NemesisResult, *stats.Table, error) {
	if cfg.Nodes == 0 {
		cfg = DefaultNemesisConfig()
	}
	if len(mechs) == 0 {
		mechs = []core.Mechanism{core.NewDVV(), core.NewDVVSet(), core.NewServerVV()}
	}
	results := make([]NemesisResult, 0, len(mechs))
	for _, m := range mechs {
		res, err := runNemesisOne(cfg, m)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: nemesis %s: %w", m.Name(), err)
		}
		results = append(results, res)
	}
	t := stats.NewTable(
		fmt.Sprintf("E4 — nemesis (seed %d): asymmetric partition + drop/dup/reorder + fsync stall, heal, converge", cfg.Seed),
		"mechanism", "acked", "retries", "incomplete", "lost", "false-conflicts", "dup-dots",
		"pending-hints", "disagree", "severed", "dropped", "dup", "delayed", "stalls",
		"sloppy-acks", "hint-skips", "verdict")
	for _, r := range results {
		verdict := "CLEAN"
		switch {
		case !r.Faulted():
			verdict = "NO-FAULT" // the timeline never fired; the run proved nothing
		case !r.Clean():
			verdict = "DIVERGED"
		}
		t.AddRow(r.Mechanism, r.AckedWrites, r.Retries, r.Incomplete, r.Lost, r.FalseConflicts,
			r.DuplicateDots, r.PendingHints, r.Disagree, r.Chaos.Severed, r.Chaos.Dropped,
			r.Chaos.Duplicated, r.Chaos.Delayed, r.Stalls, r.SloppyAcks, r.HintSkips, verdict)
	}
	return results, t, nil
}

// keyOracle tracks one key's acknowledged-write history with a few
// monotone sets, so racing writers can record outcomes in any order:
//
//   - acked: values whose put was acknowledged;
//   - superseded: values some later acked write causally dominates — what
//     its preceding reads returned, plus the writer's own previous acked
//     value (the session is read-your-writes, so an acked put dominates
//     the writer's whole acked chain even across a partition);
//   - excused: values whose write had at least one failed put attempt.
//     A failed attempt may still have applied server-side (the response
//     was eaten by the nemesis), minting a dot the client never adopted —
//     a ghost sibling carrying the same value. Its survival is correct
//     concurrency semantics, not divergence, so it cannot count as a
//     false conflict.
//
// The expected final read is acked − superseded; anything from that set
// missing is a lost acked write, anything extra that is not excused is a
// false conflict.
type keyOracle struct {
	mu         sync.Mutex
	acked      map[string]bool
	superseded map[string]bool
	excused    map[string]bool
	doubted    map[string]bool
}

func newKeyOracle() *keyOracle {
	return &keyOracle{
		acked:      make(map[string]bool),
		superseded: make(map[string]bool),
		excused:    make(map[string]bool),
		doubted:    make(map[string]bool),
	}
}

// ack records an acknowledged write of val whose session had read the
// values in seen; hadFailure excuses val's possible ghost sibling.
func (o *keyOracle) ack(val string, seen map[string]bool, hadFailure bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for s := range seen {
		o.superseded[s] = true
	}
	o.acked[val] = true
	if hadFailure {
		o.excused[val] = true
	}
}

// abandon excuses a value whose write gave up: some attempt may have
// applied server-side, so the value may legitimately surface later.
func (o *keyOracle) abandon(val string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.excused[val] = true
}

// doubt records the values a FAILED put's session had read. The put may
// still have applied server-side, in which case its ghost dot causally
// dominates everything in seen — those values can then legitimately
// vanish without any acked write superseding them, so they must not
// score as lost. E4's chained writers never need this (a writer's next
// acked put re-supersedes its whole session), but E7's one-shot clients
// do: under overload, failed-after-apply is the common case.
func (o *keyOracle) doubt(seen map[string]bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for s := range seen {
		o.doubted[s] = true
	}
}

// check scores a final read's distinct values against the oracle.
func (o *keyOracle) check(distinct map[string]bool) (lost, falseConflicts int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for v := range o.acked {
		if !o.superseded[v] && !o.doubted[v] && !distinct[v] {
			lost++
		}
	}
	for v := range distinct {
		if (!o.acked[v] || o.superseded[v]) && !o.excused[v] {
			falseConflicts++
		}
	}
	return lost, falseConflicts
}

func runNemesisOne(cfg NemesisConfig, mech core.Mechanism) (NemesisResult, error) {
	dataRoot, err := os.MkdirTemp("", "dvv-nemesis-*")
	if err != nil {
		return NemesisResult{}, err
	}
	defer os.RemoveAll(dataRoot)

	// All traffic — client RPCs, replication, hints, anti-entropy — runs
	// through the chaos wrapper, so one rule table is the whole network.
	chaos := transport.NewChaos(transport.NewLoopback(), cfg.Seed*131)
	defer chaos.Close()
	var skewFn func(dot.ID) time.Duration
	if cfg.ClockSkew != 0 {
		// Alternate the sign by node index so neighbouring preference-
		// list members disagree by the full 2×ClockSkew spread.
		skewFn = func(id dot.ID) time.Duration {
			var idx int
			fmt.Sscanf(string(id), "n%d", &idx)
			if idx%2 == 0 {
				return cfg.ClockSkew
			}
			return -cfg.ClockSkew
		}
	}
	c, err := cluster.New(cluster.Config{
		Mech: mech, Nodes: cfg.Nodes, N: cfg.N, R: cfg.R, W: cfg.W,
		Transport:  chaos,
		ReadRepair: true, HintedHandoff: true, SloppyQuorum: true,
		SuspicionWindow: cfg.SuspicionWindow,
		Timeout:         2 * time.Second,
		Seed:            cfg.Seed,
		DataRoot:        dataRoot,
		Fsync:           cfg.Fsync,
		ClockSkew:       skewFn,
	})
	if err != nil {
		return NemesisResult{}, err
	}
	defer c.Close()

	res := NemesisResult{Mechanism: mech.Name()}

	// The asymmetric split: a minority side (2 of 5) and a majority side.
	// Each cross-side pair is severed in ONE direction only — requests
	// from minority to majority still deliver, but every reply (and every
	// majority-originated request) is eaten. State therefore keeps
	// leaking across the cut one way while acknowledgements cannot,
	// which is the nastiest partition shape for causality tracking.
	ids := make([]dot.ID, 0, cfg.Nodes)
	for _, n := range c.Nodes {
		ids = append(ids, n.ID())
	}
	minority, majority := ids[:cfg.Nodes/2], ids[cfg.Nodes/2:]
	faults := &storage.Faults{}
	victim := c.Nodes[len(ids)-1] // a majority node: its stall sits on the hot path

	inject := func() {
		// Probabilistic faults on every node↔node link first, then the
		// one-way sever on cross-side links (PartitionOneWay preserves
		// the probabilistic faults already set on the pair).
		link := transport.LinkFaults{DropRate: cfg.DropRate, DupRate: cfg.DupRate, Reorder: cfg.Reorder}
		for _, a := range ids {
			for _, b := range ids {
				if a != b {
					chaos.SetLink(a, b, link)
				}
			}
		}
		for _, a := range majority {
			for _, b := range minority {
				chaos.PartitionOneWay(a, b)
			}
		}
		faults.StallFsync(cfg.FsyncStall)
		victim.Store().InjectFaults(faults)
	}
	heal := func() {
		chaos.HealAll()
		faults.Clear()
	}

	total := cfg.Keys * 2 * cfg.WritesPerWriter
	injectAt, healAt := int64(total)/4, int64(total)*3/4

	var acked, retries, incomplete atomic.Int64
	oracles := make([]*keyOracle, cfg.Keys)
	for i := range oracles {
		oracles[i] = newKeyOracle()
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	for k := 0; k < cfg.Keys; k++ {
		for w := 0; w < 2; w++ {
			k, w := k, w
			wg.Add(1)
			go func() {
				defer wg.Done()
				// RouteOwner: every attempt lands on a uniformly random
				// preference-list member, which coordinates locally — so
				// over the writer's lifetime the same key is coordinated
				// from both sides of the partition, without the
				// forwarding hop whose duplication would mint siblings
				// the oracle cannot attribute (see RouteOwner's doc).
				cl := c.NewClient(dot.ID(fmt.Sprintf("nemesis-%02d-%d", k, w)), cluster.RouteOwner)
				key := fmt.Sprintf("contested-%02d", k)
				backoff := 200 * time.Microsecond
				prev := ""
				for seq := 1; seq <= cfg.WritesPerWriter; seq++ {
					val := fmt.Sprintf("k%02d-w%d-s%04d", k, w, seq)
					// The session is read-your-writes: an acked put
					// dominates this writer's own previous acked value
					// through the session context even when the preceding
					// read (served by the other side of the partition)
					// never returned it — so prev always counts as seen.
					seen := map[string]bool{}
					if prev != "" {
						seen[prev] = true
					}
					hadFailure, ok := false, false
					for attempt := 0; attempt <= cfg.RetryLimit; attempt++ {
						if attempt > 0 {
							retries.Add(1)
							time.Sleep(backoff)
							if backoff < 10*time.Millisecond {
								backoff *= 2
							}
						}
						vals, err := cl.Get(ctx, key)
						if err != nil {
							continue
						}
						for _, v := range vals {
							seen[string(v)] = true
						}
						if err := cl.Put(ctx, key, []byte(val)); err != nil {
							hadFailure = true
							continue
						}
						ok = true
						break
					}
					if !ok {
						incomplete.Add(1)
						oracles[k].abandon(val)
						continue
					}
					backoff = 200 * time.Microsecond
					oracles[k].ack(val, seen, hadFailure)
					prev = val
					acked.Add(1)
				}
			}()
		}
	}
	go func() {
		wg.Wait()
		close(writersDone)
	}()

	// The nemesis scheduler: warmup → inject → hold → heal → quiesce,
	// with phase changes triggered by acked-write progress so the fault
	// window always covers a meaningful slice of the workload.
	nemesisDone := make(chan struct{})
	go func() {
		defer close(nemesisDone)
		waitProgress := func(target int64) bool {
			for acked.Load() < target {
				select {
				case <-writersDone:
					return false
				default:
					time.Sleep(200 * time.Microsecond)
				}
			}
			return true
		}
		if !waitProgress(injectAt) {
			return
		}
		inject()
		waitProgress(healAt)
		heal()
	}()

	wg.Wait()
	<-nemesisDone
	heal() // idempotent; guards the writers-finished-early path

	res.AckedWrites = int(acked.Load())
	res.Retries = int(retries.Load())
	res.Incomplete = int(incomplete.Load())

	// Quiesce: drain hints, then anti-entropy every pair a few rounds so
	// one-way-leaked states and sloppy-quorum fallbacks all converge.
	dctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	sweep := func() {
		for _, n := range c.Nodes {
			if err := n.WaitHintsDrained(dctx); err != nil {
				break // PendingHints below records the failure
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
	}
	sweep()

	// The coda: on the now-converged cluster, one synchronized
	// write-write race per key through the key's coordinator — both
	// writers read, meet at a barrier, then put concurrently with the
	// same causal context. This is the paper's motivating anomaly run
	// end to end: the dotted mechanisms must keep exactly both values as
	// siblings, while the server-side VV's second put advances the
	// coordinator's own entry past the first and silently discards it —
	// a deterministic lost update per key.
	var coda sync.WaitGroup
	for k := 0; k < cfg.Keys; k++ {
		k := k
		var barrier sync.WaitGroup
		barrier.Add(2)
		for w := 0; w < 2; w++ {
			w := w
			coda.Add(1)
			go func() {
				defer coda.Done()
				cl := c.NewClient(dot.ID(fmt.Sprintf("volley-%02d-%d", k, w)), cluster.RouteCoordinator)
				key := fmt.Sprintf("contested-%02d", k)
				val := fmt.Sprintf("k%02d-volley-%d", k, w)
				seen := map[string]bool{}
				got := false
				for attempt := 0; attempt <= cfg.RetryLimit; attempt++ {
					vals, err := cl.Get(ctx, key)
					if err != nil {
						time.Sleep(time.Millisecond)
						continue
					}
					for _, v := range vals {
						seen[string(v)] = true
					}
					got = true
					break
				}
				barrier.Done()
				barrier.Wait() // the partner has read too: the puts now race
				if !got {
					oracles[k].abandon(val)
					return
				}
				hadFailure, ok := false, false
				for attempt := 0; attempt <= cfg.RetryLimit; attempt++ {
					if err := cl.Put(ctx, key, []byte(val)); err != nil {
						hadFailure = true
						time.Sleep(time.Millisecond)
						if vals, err := cl.Get(ctx, key); err == nil {
							for _, v := range vals {
								seen[string(v)] = true
							}
						}
						continue
					}
					ok = true
					break
				}
				if !ok {
					incomplete.Add(1)
					oracles[k].abandon(val)
					return
				}
				oracles[k].ack(val, seen, hadFailure)
			}()
		}
	}
	coda.Wait()
	res.Incomplete = int(incomplete.Load())

	// Spread the coda's siblings so the replica-agreement oracle sees the
	// settled state, then account for any hints still pending.
	sweep()
	for _, n := range c.Nodes {
		res.PendingHints += n.PendingHints()
	}

	// Oracle 1: each key's final read equals its expected live set.
	reader := c.NewClient("nemesis-verifier", cluster.RouteCoordinator)
	for k := 0; k < cfg.Keys; k++ {
		key := fmt.Sprintf("contested-%02d", k)
		vals, err := reader.Get(ctx, key)
		if err != nil {
			return NemesisResult{}, fmt.Errorf("final read %s: %w", key, err)
		}
		distinct := map[string]bool{}
		for _, v := range vals {
			distinct[string(v)] = true
		}
		lost, fc := oracles[k].check(distinct)
		res.Lost += lost
		res.FalseConflicts += fc
	}

	// Oracle 2: dot uniqueness across every replica and sibling (dotted
	// mechanisms only; versionDots yields nothing for plain VVs).
	type dotKey struct {
		key string
		d   dot.Dot
	}
	seenDots := map[dotKey]string{}
	dups := map[dotKey]bool{}
	for _, n := range c.Nodes {
		st := n.Store()
		for _, key := range st.Keys() {
			state, ok := st.Snapshot(key)
			if !ok {
				continue
			}
			for _, dv := range versionDots(state) {
				dk := dotKey{key, dv.d}
				if prev, ok := seenDots[dk]; ok {
					if prev != dv.val {
						dups[dk] = true
					}
				} else {
					seenDots[dk] = dv.val
				}
			}
		}
	}
	res.DuplicateDots = len(dups)

	// Oracle 3: replica agreement. After the sweeps, every replica of a
	// key must store the same version set; KeyHash is the comparator the
	// anti-entropy plane itself uses.
	for k := 0; k < cfg.Keys; k++ {
		key := fmt.Sprintf("contested-%02d", k)
		hashes := map[uint64]int{}
		for _, id := range c.Ring.Preference(key, cfg.N) {
			n := c.NodeByID(id)
			if n == nil {
				continue
			}
			// KeyHash is 0 for an absent key, which counts as its own
			// (disagreeing) state: every replica must hold the key.
			hashes[n.Store().KeyHash(key)]++
		}
		if len(hashes) > 1 {
			res.Disagree++
		}
	}

	res.Chaos = chaos.Stats()
	res.Stalls = faults.Stats().Stalls
	for _, n := range c.Nodes {
		st := n.Stats()
		res.SloppyAcks += st.SloppyAcks
		res.HintSkips += st.HintSkips
	}
	return res, nil
}
