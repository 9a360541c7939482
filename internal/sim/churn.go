package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/stats"
)

// ChurnConfig parameterises the elasticity experiment: continuous client
// writes while the cluster loses and gains a member, with sloppy quorums
// and hinted handoff keeping acknowledged writes durable.
type ChurnConfig struct {
	Nodes   int // initial cluster size
	N, R, W int
	// Clients is the number of concurrent writer sessions; each owns one
	// key and performs WritesPerClient acknowledged read-modify-writes,
	// so the expected final state of every key is exactly its last
	// acknowledged value — the oracle for "no acknowledged write lost, no
	// false conflict manufactured".
	Clients         int
	WritesPerClient int
	// RetryLimit bounds per-write retries when churn makes an op fail.
	RetryLimit int
	// SuspicionWindow is the nodes' failure-suspicion window.
	SuspicionWindow time.Duration
	Seed            int64
}

// DefaultChurnConfig is sized to finish in a few seconds including under
// the race detector: a 5-node cluster, one join and one leave mid-run.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		Nodes: 5, N: 3, R: 2, W: 2,
		Clients: 24, WritesPerClient: 15, RetryLimit: 100,
		SuspicionWindow: 50 * time.Millisecond,
		Seed:            11,
	}
}

// ChurnResult is the outcome of one churn run.
type ChurnResult struct {
	Mechanism   string
	AckedWrites int
	Retries     int
	// Incomplete counts writes abandoned after RetryLimit (never
	// acknowledged; excluded from the oracle).
	Incomplete int
	Joined     dot.ID
	Left       dot.ID

	// Lost counts keys whose last acknowledged value is absent from the
	// final read; FalseConflicts counts keys whose final read returned
	// more than one distinct value. Both must be zero for the run to be
	// considered clean.
	Lost           int
	FalseConflicts int
	// PendingHints is the cluster-wide hint backlog after the post-churn
	// drain (0 when handoff completed).
	PendingHints int

	// Summed node counters.
	SloppyAcks, ReplFailures    uint64
	HintsStored, HintsDeliv     uint64
	HandoffKeys, QuorumFailures uint64
}

// Clean reports whether the run lost nothing and invented no conflicts.
func (r ChurnResult) Clean() bool {
	return r.Lost == 0 && r.FalseConflicts == 0 && r.PendingHints == 0
}

// RunChurn drives continuous client writes through a cluster that gains
// one node mid-run and loses one shortly after, then verifies every
// acknowledged write against the per-key oracle. Mechanisms default to
// DVV and DVVSet.
func RunChurn(cfg ChurnConfig, mechs ...core.Mechanism) ([]ChurnResult, *stats.Table, error) {
	if cfg.Nodes == 0 {
		cfg = DefaultChurnConfig()
	}
	if len(mechs) == 0 {
		mechs = []core.Mechanism{core.NewDVV(), core.NewDVVSet()}
	}
	results := make([]ChurnResult, 0, len(mechs))
	for _, m := range mechs {
		res, err := runChurnOne(cfg, m)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: churn %s: %w", m.Name(), err)
		}
		results = append(results, res)
	}
	t := stats.NewTable("E1 — elastic membership: one join + one leave under continuous writes",
		"mechanism", "acked", "retries", "lost", "false-conflicts", "pending-hints",
		"sloppy-acks", "repl-failures", "hints s/d", "handoff keys", "verdict")
	for _, r := range results {
		verdict := "CLEAN"
		if !r.Clean() {
			verdict = "DIVERGED"
		}
		t.AddRow(r.Mechanism, r.AckedWrites, r.Retries, r.Lost, r.FalseConflicts,
			r.PendingHints, r.SloppyAcks, r.ReplFailures,
			fmt.Sprintf("%d/%d", r.HintsStored, r.HintsDeliv), r.HandoffKeys, verdict)
	}
	return results, t, nil
}

func runChurnOne(cfg ChurnConfig, mech core.Mechanism) (ChurnResult, error) {
	c, err := cluster.New(cluster.Config{
		Mech: mech, Nodes: cfg.Nodes, N: cfg.N, R: cfg.R, W: cfg.W,
		ReadRepair: true, HintedHandoff: true, SloppyQuorum: true,
		SuspicionWindow: cfg.SuspicionWindow,
		Timeout:         5 * time.Second,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return ChurnResult{}, err
	}
	defer c.Close()

	res := ChurnResult{Mechanism: mech.Name()}
	total := cfg.Clients * cfg.WritesPerClient
	var acked atomic.Int64
	var retries atomic.Int64
	var incomplete atomic.Int64

	// Each writer owns one key and performs a read-modify-write chain:
	// every acknowledged write causally dominates everything the client
	// saw before it, so the oracle for the final state is exactly the last
	// acknowledged value — one sibling, no concurrency.
	lastAcked := make([]string, cfg.Clients)
	ctx := context.Background()
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	for i := 0; i < cfg.Clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := c.NewClient(dot.ID(fmt.Sprintf("churner-%02d", i)), cluster.RouteCoordinator)
			key := fmt.Sprintf("churn-key-%02d", i)
			for seq := 1; seq <= cfg.WritesPerClient; seq++ {
				val := fmt.Sprintf("c%02d-w%04d", i, seq)
				ok := false
				for attempt := 0; attempt <= cfg.RetryLimit; attempt++ {
					if attempt > 0 {
						retries.Add(1)
					}
					// Fold the freshest visible context in, then write.
					if _, err := cl.Get(ctx, key); err != nil {
						continue
					}
					if err := cl.Put(ctx, key, []byte(val)); err != nil {
						continue
					}
					ok = true
					break
				}
				if !ok {
					incomplete.Add(1)
					continue
				}
				lastAcked[i] = val
				acked.Add(1)
			}
		}()
	}

	go func() {
		wg.Wait()
		close(writersDone)
	}()

	// Membership events, triggered by write progress: a join after ~1/3
	// of the workload, a leave after ~2/3 — both while writes continue.
	// Abandoned writes never count as acks, so also return once every
	// writer has finished — a threshold made unreachable by incompletes
	// must not hang the run.
	waitForAcks := func(threshold int64) {
		for acked.Load() < threshold {
			select {
			case <-writersDone:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}
	waitForAcks(int64(total) / 3)
	joined, err := c.AddNode("")
	if err != nil {
		return ChurnResult{}, fmt.Errorf("join: %w", err)
	}
	res.Joined = joined.ID()
	waitForAcks(2 * int64(total) / 3)
	victim := c.Nodes[1].ID()
	if err := c.RemoveNode(victim); err != nil {
		return ChurnResult{}, fmt.Errorf("leave: %w", err)
	}
	res.Left = victim
	wg.Wait()

	res.AckedWrites = int(acked.Load())
	res.Retries = int(retries.Load())
	res.Incomplete = int(incomplete.Load())

	// Post-churn convergence: drain every node's hints, then account the
	// backlog (must be empty).
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for _, n := range c.Nodes {
		if err := n.WaitHintsDrained(dctx); err != nil {
			break // PendingHints below records the failure
		}
	}
	for _, n := range c.Nodes {
		res.PendingHints += n.PendingHints()
		st := n.Stats()
		res.SloppyAcks += st.SloppyAcks
		res.ReplFailures += st.ReplFailures
		res.HintsStored += st.HintsStored
		res.HintsDeliv += st.HintsDelivered
		res.HandoffKeys += st.HandoffKeys
		res.QuorumFailures += st.QuorumFailures
	}

	// Oracle check: a fresh reader must see exactly the last acknowledged
	// value of every key — anything missing is a lost acknowledged write,
	// anything extra is a false conflict.
	reader := c.NewClient("churn-verifier", cluster.RouteCoordinator)
	for i := 0; i < cfg.Clients; i++ {
		want := lastAcked[i]
		if want == "" {
			continue
		}
		key := fmt.Sprintf("churn-key-%02d", i)
		vals, err := reader.Get(ctx, key)
		if err != nil {
			return ChurnResult{}, fmt.Errorf("final read %s: %w", key, err)
		}
		distinct := map[string]bool{}
		for _, v := range vals {
			distinct[string(v)] = true
		}
		if !distinct[want] {
			res.Lost++
		}
		if len(distinct) > 1 {
			res.FalseConflicts++
		}
	}
	return res, nil
}
