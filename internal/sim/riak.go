package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/workload"
)

// RiakConfig parameterises the cluster serving experiment (C3) — the
// repository's reproduction of the Riak evaluation the brief announcement
// cites ("significant reduction in the size of metadata, and better
// latency when serving requests").
type RiakConfig struct {
	Nodes    int
	N, R, W  int
	Clients  int
	Ops      int
	Keys     int
	ZipfSkew float64
	// GetFraction of operations are reads.
	GetFraction float64
	// BlindFraction of writes present no context (racing writers).
	BlindFraction float64
	// Latency is injected by transport.Chaos on every link, both legs:
	// Base ± Jitter uniform per message (Delay = Base − Jitter plus a
	// Reorder window of 2·Jitter) on top of the loopback mux's own cost,
	// plus PerByte × payload — the term that converts metadata bloat into
	// measurable delay.
	Base    time.Duration
	Jitter  time.Duration
	PerByte time.Duration
	Seed    int64
}

// DefaultRiakConfig matches the harness defaults: an 8-node cluster,
// Riak-like N=3/R=2/W=2, zipfian traffic with racing writers.
func DefaultRiakConfig() RiakConfig {
	return RiakConfig{
		Nodes: 8, N: 3, R: 2, W: 2,
		Clients: 32, Ops: 4000, Keys: 200, ZipfSkew: 1.2,
		GetFraction: 0.5, BlindFraction: 0.2,
		Base: 300 * time.Microsecond, Jitter: 100 * time.Microsecond,
		PerByte: 20 * time.Nanosecond,
		Seed:    7,
	}
}

// RiakResult is one mechanism's measurements.
type RiakResult struct {
	Mechanism     string
	GetLatency    *stats.Histogram
	PutLatency    *stats.Histogram
	WireBytes     uint64
	WireMessages  uint64
	MetadataBytes int
	MaxSiblings   int
	Errors        int
}

// RunRiak serves the same workload over clusters running each mechanism
// and reports request latency percentiles, wire traffic and resident
// metadata — the C3 comparison. Mechanisms default to DVV vs client-VV
// vs pruned client-VV (the Riak-practice baseline).
func RunRiak(cfg RiakConfig, mechs ...core.Mechanism) ([]RiakResult, *stats.Table, error) {
	if cfg.Nodes == 0 {
		cfg = DefaultRiakConfig()
	}
	if len(mechs) == 0 {
		mechs = []core.Mechanism{core.NewDVV(), core.NewDVVSet(), core.NewClientVV(), core.NewPrunedClientVV(8)}
	}
	results := make([]RiakResult, 0, len(mechs))
	for _, m := range mechs {
		res, err := runRiakOne(cfg, m)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: riak %s: %w", m.Name(), err)
		}
		results = append(results, res)
	}
	t := stats.NewTable("C3 — cluster serving: latency, wire traffic, metadata",
		"mechanism", "get p50", "get p95", "get p99", "put p50", "put p95", "put p99",
		"wire KB", "metadata KB", "max siblings", "errors")
	for _, r := range results {
		t.AddRow(r.Mechanism,
			r.GetLatency.Quantile(0.50).Round(time.Microsecond),
			r.GetLatency.Quantile(0.95).Round(time.Microsecond),
			r.GetLatency.Quantile(0.99).Round(time.Microsecond),
			r.PutLatency.Quantile(0.50).Round(time.Microsecond),
			r.PutLatency.Quantile(0.95).Round(time.Microsecond),
			r.PutLatency.Quantile(0.99).Round(time.Microsecond),
			fmt.Sprintf("%.1f", float64(r.WireBytes)/1024),
			fmt.Sprintf("%.1f", float64(r.MetadataBytes)/1024),
			r.MaxSiblings, r.Errors)
	}
	return results, t, nil
}

func runRiakOne(cfg RiakConfig, mech core.Mechanism) (RiakResult, error) {
	chaos := transport.NewChaos(transport.NewLoopback(), cfg.Seed)
	defer chaos.Close()
	chaos.SetDefault(transport.LinkFaults{
		Delay: cfg.Base - cfg.Jitter, Reorder: 2 * cfg.Jitter, PerByte: cfg.PerByte,
	})
	cl, err := cluster.New(cluster.Config{
		Mech: mech, Nodes: cfg.Nodes, N: cfg.N, R: cfg.R, W: cfg.W,
		Transport: chaos, Timeout: 10 * time.Second, Seed: cfg.Seed,
	})
	if err != nil {
		return RiakResult{}, err
	}
	defer cl.Close()

	gen := workload.NewGenerator(
		workload.NewZipf(cfg.Keys, cfg.ZipfSkew, cfg.Seed),
		workload.Mix{GetFraction: cfg.GetFraction, BlindFraction: cfg.BlindFraction},
		cfg.Clients, cfg.Seed,
	)
	clients := make([]*cluster.Client, cfg.Clients)
	for i := range clients {
		clients[i] = cl.NewClient("", cluster.RouteCoordinator)
	}
	res := RiakResult{
		Mechanism:  mech.Name(),
		GetLatency: &stats.Histogram{},
		PutLatency: &stats.Histogram{},
	}
	ctx := context.Background()
	keysTouched := map[string]bool{}
	for _, op := range gen.Generate(cfg.Ops) {
		c := clients[op.Client]
		start := time.Now()
		var err error
		switch op.Kind {
		case workload.OpGet:
			_, err = c.Get(ctx, op.Key)
			res.GetLatency.Observe(time.Since(start))
		case workload.OpPut:
			err = c.Put(ctx, op.Key, op.Value)
			res.PutLatency.Observe(time.Since(start))
		case workload.OpBlindPut:
			c.ForgetSession(op.Key)
			err = c.Put(ctx, op.Key, op.Value)
			res.PutLatency.Observe(time.Since(start))
		}
		if err != nil {
			res.Errors++
		}
		keysTouched[op.Key] = true
	}
	res.WireBytes = chaos.BytesSent()
	res.WireMessages = chaos.MessagesSent()
	for _, n := range cl.Nodes {
		res.MetadataBytes += n.Store().TotalMetadataBytes()
	}
	for k := range keysTouched {
		if s := cl.MaxSiblings(k); s > res.MaxSiblings {
			res.MaxSiblings = s
		}
	}
	return res, nil
}
