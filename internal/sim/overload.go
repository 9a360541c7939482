package sim

// E7 — the overload experiment. The paper's DVV mechanism keeps
// causality metadata constant-size so a store can take heavy concurrent
// write load without sibling explosion; E7 asks the production-shaped
// follow-up: what happens when the load exceeds capacity *and* one
// replica is sick? The scenario is open-loop (arrivals do not wait for
// completions — the shape that actually kills services) lambda-controlled
// load at 1x/2x/4x the measured capacity, with one replica's fsync
// stalled throughout, run twice: once with the full overload-protection
// plane (admission control, hedged reads, budgeted client retries,
// client-side ejection of failing coordinators) and once with the naive
// configuration (no admission, no hedging, no ejection, unlimited
// retries — the pre-PR-10 store). The protected arm must keep goodput
// and bounded queue delay; the unprotected arm demonstrates the
// collapse: its tail latency walks to the RPC timeout. Both arms must
// lose zero acknowledged writes (the E1/E4-style oracle) — overload may
// cost availability, never durability.

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/storage"
)

// overloadEjectionWindow is how long the protected arm's clients avoid a
// coordinator that failed them. It is deliberately several RPC-times
// long: every probe against a still-stalled coordinator pays the full
// stall, so rapid re-probing would dominate the cost of talking to it.
const overloadEjectionWindow = 500 * time.Millisecond

// OverloadConfig parameterises E7.
type OverloadConfig struct {
	Nodes   int
	N, R, W int
	// Keys is the number of distinct keys the open-loop traffic cycles
	// over (each op is a read-modify-write of one key).
	Keys int

	// ProbeWorkers closed-loop workers measure capacity for
	// ProbeDuration on the healthy cluster before any fault is armed.
	ProbeWorkers  int
	ProbeDuration time.Duration

	// Multipliers are the open-loop load points, as multiples of the
	// measured capacity; each runs for PhaseDuration with the fsync
	// stall armed.
	Multipliers   []float64
	PhaseDuration time.Duration
	// MaxOutstanding bounds the load generator's in-flight ops — a
	// frontend connection pool. Arrivals that find the pool full are
	// dropped at the generator and counted (GenDropped) instead of
	// stacking goroutines without limit; without this bound, a collapsed
	// cluster makes the in-process generator itself the benchmark
	// (especially under the race detector, whose cost scales with live
	// goroutines). A slow cluster now shows up as pool exhaustion +
	// collapsed tail latency, which is exactly how real frontends die.
	MaxOutstanding int

	// BaseFsync is a small commit stall injected on EVERY node for the
	// whole run, modelling a realistic disk service time. It makes the
	// measured capacity I/O-bound instead of CPU-bound, which keeps the
	// probe reproducible and leaves the healthy nodes actual headroom to
	// absorb load the protection plane redirects off the victim.
	BaseFsync time.Duration
	// FsyncStall is the victim replica's injected commit stall during
	// the load phases (replacing its BaseFsync).
	FsyncStall time.Duration

	// Timeout is the cluster RPC timeout — the latency ceiling the
	// unprotected arm's p99 walks to.
	Timeout time.Duration

	// Protection-plane knobs (protected arm only; see node.Config).
	MaxInFlight   int
	QueueTarget   time.Duration
	ClientRetries int

	Seed int64
}

// DefaultOverloadConfig is sized to finish in well under a minute
// including the race detector, while still pushing every phase past
// saturation. Capacity is probed at moderate concurrency (a sustainable
// service rate, not peak saturation); MaxInFlight sits well above the
// probe concurrency so the healthy nodes can absorb load redirected
// away from the stalled replica.
func DefaultOverloadConfig() OverloadConfig {
	// The race detector multiplies every CPU cycle several-fold while
	// injected fsync stalls stay wall-clock constant. A larger base disk
	// service time under the detector keeps the experiment I/O-bound —
	// the regime it is designed to test — instead of benchmarking the
	// detector itself; the queue target scales with it because a put
	// legitimately waits a couple of group-commit batches.
	baseFsync := 2 * time.Millisecond
	if raceEnabled {
		baseFsync = 8 * time.Millisecond
	}
	return OverloadConfig{
		Nodes: 5, N: 3, R: 2, W: 2,
		Keys: 16,
		// 8 closed-loop workers over 5 nodes pipeline the cluster without
		// pushing it past the congestion knee: the probe measures the
		// sustainable service rate. Probing at saturation instead would
		// let the protection plane inflate its own acceptance bar —
		// "capacity" would drift with exactly the machinery the load
		// phases are graded against.
		ProbeWorkers:   8,
		ProbeDuration:  500 * time.Millisecond,
		Multipliers:    []float64{1, 2, 4},
		PhaseDuration:  800 * time.Millisecond,
		MaxOutstanding: 256,
		BaseFsync:      baseFsync,
		FsyncStall:     250 * time.Millisecond,
		Timeout:        300 * time.Millisecond,

		// MaxInFlight bounds how many client pool slots a node whose WAL
		// is stalled can pin (admitted requests there are stuck past
		// cancellation — the store has no ctx); client-side ejection
		// keeps fresh traffic off the sick node, so healthy nodes can
		// afford a cap well above their typical concurrency. QueueTarget
		// leaves room for the group-commit cadence: a put legitimately
		// waits a couple of BaseFsync batches, and a CoDel target below
		// that sheds writes the WAL would have absorbed.
		MaxInFlight:   64,
		QueueTarget:   10 * baseFsync,
		ClientRetries: 3,

		Seed: 23,
	}
}

// OverloadPhase is one load point of one arm.
type OverloadPhase struct {
	Multiplier float64
	// Launched ops (arrivals that entered the pool), GenDropped arrivals
	// rejected by the full generator pool, Acked ops (get+put both
	// acknowledged), and the goodput that implies.
	Launched, GenDropped, Acked int
	GoodputPerSec               float64
	// P50/P99 are op latencies over ALL launched ops, successes and
	// failures alike — a timeout is exactly the tail the experiment is
	// about.
	P50, P99 time.Duration

	// Node-counter deltas over the phase.
	Shed          uint64
	QueueDelayP99 time.Duration // max across nodes at phase end
	HedgedReads   uint64
	HedgeWins     uint64
	// Client retry-budget deltas.
	Retries, RetryDenied uint64
}

// OverloadResult is one arm (protected or unprotected) of E7.
type OverloadResult struct {
	Protected      bool
	CapacityPerSec float64 // measured on the protected arm's healthy cluster
	Phases         []OverloadPhase

	// Lost counts acked-and-never-superseded values missing from the
	// post-quiesce final reads — must be zero in BOTH arms.
	Lost int
	// Stalls proves the fsync fault fired; PendingHints must drain to 0.
	Stalls       uint64
	PendingHints int
	// VictimRPCCost is the mean wall time of the peers' completed
	// replica-RPC sends to the stalled victim. A send that waits out the
	// stall costs most of an RPC timeout, so a low mean shows the
	// protected arm's traffic mostly avoided it.
	VictimRPCCost time.Duration
	// Retry totals across the whole arm (issued = first attempts).
	Issued, Retries, RetryDenied uint64
}

// phase returns the phase run at the given multiplier (nil if absent).
func (r *OverloadResult) phase(mult float64) *OverloadPhase {
	for i := range r.Phases {
		if r.Phases[i].Multiplier == mult {
			return &r.Phases[i]
		}
	}
	return nil
}

// Violations evaluates the E7 in-run assertions for this arm and
// returns a list of human-readable failures (empty = the arm behaved).
// The protected arm must hold goodput and bounded queue delay at 2x,
// keep the stalled replica cheap to talk to and retries inside budget;
// the unprotected arm must actually collapse (otherwise the A/B proves
// nothing); both arms must lose no acked writes.
func (r *OverloadResult) Violations(cfg OverloadConfig) []string {
	timeout := cfg.Timeout
	var v []string
	if r.Lost > 0 {
		v = append(v, fmt.Sprintf("lost %d acked writes (must be 0)", r.Lost))
	}
	if r.Stalls == 0 {
		v = append(v, "fsync stall never fired")
	}
	if r.PendingHints > 0 {
		v = append(v, fmt.Sprintf("%d hints still pending after quiesce", r.PendingHints))
	}
	p2 := r.phase(2)
	if p2 == nil {
		v = append(v, "no 2x phase")
		return v
	}
	if r.Protected {
		if min := 0.7 * r.CapacityPerSec; p2.GoodputPerSec < min {
			v = append(v, fmt.Sprintf("2x goodput %.0f/s < 70%% of capacity %.0f/s", p2.GoodputPerSec, r.CapacityPerSec))
		}
		if bound := 10 * cfg.QueueTarget; p2.QueueDelayP99 > bound {
			v = append(v, fmt.Sprintf("2x queue delay p99 %v not bounded (> %v)", p2.QueueDelayP99, bound))
		}
		// "Far below the timeout": the mean send must cost at most a
		// third of what an unprotected attempt risks paying. The mean
		// mixes cheap reads (the stall only hurts the victim's WAL path)
		// with expensive replication batches that wait out the stall.
		if r.VictimRPCCost > timeout/3 {
			v = append(v, fmt.Sprintf("mean RPC cost to stalled peer %v not << timeout %v", r.VictimRPCCost, timeout))
		}
		// Token bucket: initial burst capacity (10) + 10% earn rate.
		if max := r.Issued/10 + 10; r.Retries > max {
			v = append(v, fmt.Sprintf("retries %d exceed 10%% budget of %d issued", r.Retries, r.Issued))
		}
	} else {
		if p2.P99 < timeout/2 {
			v = append(v, fmt.Sprintf("unprotected 2x p99 %v did not collapse (< timeout/2 = %v)", p2.P99, timeout/2))
		}
	}
	return v
}

// RunOverload drives E7: the protected arm first (which also measures
// capacity on its healthy cluster), then the unprotected arm at the
// same absolute load points.
func RunOverload(cfg OverloadConfig) ([]OverloadResult, *stats.Table, error) {
	if cfg.Nodes == 0 {
		cfg = DefaultOverloadConfig()
	}
	prot, err := runOverloadArm(cfg, true, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: overload protected arm: %w", err)
	}
	unprot, err := runOverloadArm(cfg, false, prot.CapacityPerSec)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: overload unprotected arm: %w", err)
	}
	results := []OverloadResult{prot, unprot}

	t := stats.NewTable(
		fmt.Sprintf("E7 — overload (seed %d): open-loop λ at 1x/2x/4x measured capacity (%.0f op/s), one fsync-stalled replica (%v), protected vs unprotected",
			cfg.Seed, prot.CapacityPerSec, cfg.FsyncStall),
		"config", "λ", "offered/s", "goodput/s", "p50", "p99", "shed", "gen-drop", "queue-p99",
		"hedged", "hedge-wins", "retries", "denied", "lost", "verdict")
	for _, r := range results {
		name := "unprotected"
		if r.Protected {
			name = "protected"
		}
		viol := r.Violations(cfg)
		for _, p := range r.Phases {
			verdict := ""
			if p.Multiplier == 2 {
				switch {
				case len(viol) > 0:
					verdict = "VIOLATED"
				case r.Protected:
					verdict = "PROTECTED"
				default:
					verdict = "COLLAPSED"
				}
			}
			t.AddRow(name, fmt.Sprintf("%gx", p.Multiplier),
				fmt.Sprintf("%.0f", p.Multiplier*r.CapacityPerSec),
				fmt.Sprintf("%.0f", p.GoodputPerSec),
				p.P50.Round(time.Microsecond*10), p.P99.Round(time.Microsecond*10),
				p.Shed, p.GenDropped, p.QueueDelayP99.Round(time.Microsecond*10),
				p.HedgedReads, p.HedgeWins, p.Retries, p.RetryDenied, r.Lost, verdict)
		}
	}
	return results, t, nil
}

// overloadCounters is the per-arm snapshot of every node counter the
// phases report deltas of.
type overloadCounters struct {
	shed, hedged, hedgeWins, retries, denied uint64
}

func snapshotOverload(c *cluster.Cluster) overloadCounters {
	var s overloadCounters
	for _, n := range c.Nodes {
		st := n.Stats()
		s.shed += st.Shed
		s.hedged += st.HedgedReads
		s.hedgeWins += st.HedgeWins
	}
	rs := c.RetryStats()
	s.retries, s.denied = rs.Retries, rs.Denied
	return s
}

func runOverloadArm(cfg OverloadConfig, protected bool, capacity float64) (OverloadResult, error) {
	dataRoot, err := os.MkdirTemp("", "dvv-overload-*")
	if err != nil {
		return OverloadResult{}, err
	}
	defer os.RemoveAll(dataRoot)

	ccfg := cluster.Config{
		Mech: core.NewDVV(), Nodes: cfg.Nodes, N: cfg.N, R: cfg.R, W: cfg.W,
		ReadRepair: true, HintedHandoff: true, SloppyQuorum: true,
		Timeout:       cfg.Timeout,
		Seed:          cfg.Seed,
		DataRoot:      dataRoot,
		Fsync:         true,
		ClientRetries: cfg.ClientRetries,
	}
	if protected {
		ccfg.MaxInFlight = cfg.MaxInFlight
		ccfg.QueueTarget = cfg.QueueTarget
		ccfg.HedgedReads = true
		ccfg.RetryBudget = 0.1
		// Client-side outlier ejection: with RouteOwner the victim owns
		// a share of every preference list, and without ejection each
		// client rediscovers the stall once per op — more victim-bound
		// ops than a 10% retry budget can rescue.
		ccfg.ClientEjection = overloadEjectionWindow
	} else {
		// The pre-PR-10 shape: nothing sheds, nothing steers around the
		// stall, and clients retry without a budget — the overload
		// amplifier the protected arm exists to contrast.
		ccfg.RetryBudget = -1
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		return OverloadResult{}, err
	}
	defer c.Close()

	res := OverloadResult{Protected: protected, CapacityPerSec: capacity}
	ctx := context.Background()

	// Every node pays the base disk service time, probe included.
	nodeFaults := make([]*storage.Faults, len(c.Nodes))
	for i, n := range c.Nodes {
		nodeFaults[i] = &storage.Faults{}
		nodeFaults[i].StallFsync(cfg.BaseFsync)
		n.Store().InjectFaults(nodeFaults[i])
	}
	keys := make([]string, cfg.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%03d", i)
	}
	oracles := make(map[string]*keyOracle, cfg.Keys)
	for _, k := range keys {
		oracles[k] = newKeyOracle()
	}
	var opSeq atomic.Int64

	// One read-modify-write against key through a fresh client (so its
	// session context is exactly what this op's read returned, which is
	// what the oracle's superseded-set bookkeeping needs). Values are
	// excused (hadFailure=true) because client-internal budgeted retries
	// can leave ghost siblings the op never observes — correct DVV
	// concurrency, invisible to this layer.
	rmw := func(key string) bool {
		// A client-side SLO deadline on the whole op. Without it the
		// unprotected arm's victim-coordinated puts sit in the stalled
		// WAL queue for minutes — no admission control means nothing
		// server-side ever cuts them loose.
		opCtx, cancel := context.WithTimeout(ctx, 4*cfg.Timeout)
		defer cancel()
		id := dot.ID(fmt.Sprintf("e7-%d", opSeq.Add(1)))
		cl := c.NewClient(id, cluster.RouteOwner)
		val := fmt.Sprintf("%s-%s", key, id)
		vals, err := cl.Get(opCtx, key)
		if err != nil {
			return false
		}
		seen := make(map[string]bool, len(vals))
		for _, v := range vals {
			seen[string(v)] = true
		}
		if err := cl.Put(opCtx, key, []byte(val)); err != nil {
			// Some attempt may have applied before its response was cut
			// off: val may legitimately surface later, and the values it
			// had seen may legitimately vanish.
			oracles[key].abandon(val)
			oracles[key].doubt(seen)
			return false
		}
		oracles[key].ack(val, seen, true)
		return true
	}

	// Capacity probe: closed-loop at ProbeWorkers outstanding ops on the
	// healthy cluster, spawning a fresh goroutine + client per op so the
	// probe pays exactly the per-op costs the load phases pay. Only the
	// protected arm measures; the unprotected arm reuses the number so
	// both arms are offered identical absolute load.
	if capacity == 0 {
		var done atomic.Int64
		var wg sync.WaitGroup
		sem := make(chan struct{}, cfg.ProbeWorkers)
		start := time.Now()
		deadline := start.Add(cfg.ProbeDuration)
		for i := 0; time.Now().Before(deadline); i++ {
			sem <- struct{}{}
			key := keys[i%len(keys)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rmw(key) {
					done.Add(1)
				}
				<-sem
			}()
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		res.CapacityPerSec = float64(done.Load()) / el
		if res.CapacityPerSec < 1 {
			return res, fmt.Errorf("capacity probe measured %.2f op/s", res.CapacityPerSec)
		}
	}

	// Arm the fault: the last node's WAL commits stall hard for the
	// whole loaded portion of the run.
	victimID := c.Nodes[len(c.Nodes)-1].ID()
	faults := nodeFaults[len(nodeFaults)-1]
	faults.StallFsync(cfg.FsyncStall)

	for _, mult := range cfg.Multipliers {
		before := snapshotOverload(c)
		rate := mult * res.CapacityPerSec

		var mu sync.Mutex
		var lats []time.Duration
		var acked int
		var wg sync.WaitGroup
		var outstanding atomic.Int64
		launched, dropped, arrivals := 0, 0, 0

		// Open-loop pacer: arrivals at the target rate regardless of
		// completions, accumulated fractionally per 2ms tick, bounded by
		// the generator's connection pool.
		tick := 2 * time.Millisecond
		ticker := time.NewTicker(tick)
		deadline := time.Now().Add(cfg.PhaseDuration)
		carry := 0.0
		for now := range ticker.C {
			if now.After(deadline) {
				break
			}
			carry += rate * tick.Seconds()
			for carry >= 1 {
				carry--
				key := keys[arrivals%len(keys)]
				arrivals++
				if int(outstanding.Load()) >= cfg.MaxOutstanding {
					dropped++
					continue
				}
				outstanding.Add(1)
				launched++
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer outstanding.Add(-1)
					opStart := time.Now()
					ok := rmw(key)
					d := time.Since(opStart)
					mu.Lock()
					lats = append(lats, d)
					if ok {
						acked++
					}
					mu.Unlock()
				}()
			}
		}
		ticker.Stop()
		wg.Wait()

		after := snapshotOverload(c)
		var qp99 time.Duration
		for _, n := range c.Nodes {
			if d := time.Duration(n.Stats().QueueDelayP99); d > qp99 {
				qp99 = d
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) time.Duration {
			if len(lats) == 0 {
				return 0
			}
			idx := int(float64(len(lats)) * p)
			if idx >= len(lats) {
				idx = len(lats) - 1
			}
			return lats[idx]
		}
		// Open-loop accounting: every completion here came from this
		// window's arrivals, so goodput is acked over the arrival window
		// (the drain tail after the last arrival is not extra offered
		// time).
		res.Phases = append(res.Phases, OverloadPhase{
			Multiplier:    mult,
			Launched:      launched,
			GenDropped:    dropped,
			Acked:         acked,
			GoodputPerSec: float64(acked) / cfg.PhaseDuration.Seconds(),
			P50:           pct(0.50),
			P99:           pct(0.99),
			Shed:          after.shed - before.shed,
			QueueDelayP99: qp99,
			HedgedReads:   after.hedged - before.hedged,
			HedgeWins:     after.hedgeWins - before.hedgeWins,
			Retries:       after.retries - before.retries,
			RetryDenied:   after.denied - before.denied,
		})
	}

	// The victim's mean replica-RPC cost, as seen by its peers.
	var cost node.RPCCost
	for _, n := range c.Nodes {
		if n.ID() == victimID {
			continue
		}
		pc := n.PeerRPC(victimID)
		cost.Sends += pc.Sends
		cost.Latency += pc.Latency
	}
	res.VictimRPCCost = cost.Mean()
	res.Stalls = faults.Stats().Stalls

	// Heal and quiesce: clear every stall, drain hints, anti-entropy
	// every pair until the replicas agree, then score the oracle.
	for _, f := range nodeFaults {
		f.Clear()
	}
	dctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for round := 0; round < 2; round++ {
		for _, n := range c.Nodes {
			if err := n.WaitHintsDrained(dctx); err != nil {
				break
			}
		}
		for _, n := range c.Nodes {
			for _, p := range c.Nodes {
				if n.ID() != p.ID() {
					_ = n.AntiEntropyWith(dctx, p.ID())
				}
			}
		}
	}
	for _, n := range c.Nodes {
		res.PendingHints += n.PendingHints()
	}

	reader := c.NewClient("e7-verifier", cluster.RouteCoordinator)
	for _, key := range keys {
		var vals [][]byte
		var rerr error
		for attempt := 0; attempt < 50; attempt++ {
			if vals, rerr = reader.Get(ctx, key); rerr == nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if rerr != nil {
			return res, fmt.Errorf("final read %s: %w", key, rerr)
		}
		distinct := make(map[string]bool, len(vals))
		for _, v := range vals {
			distinct[string(v)] = true
		}
		lost, _ := oracles[key].check(distinct)
		res.Lost += lost
	}

	rs := c.RetryStats()
	res.Issued, res.Retries, res.RetryDenied = rs.Issued, rs.Retries, rs.Denied
	return res, nil
}
