package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// runTraced is the per-layer run. Its numbers never feed an end-to-end
// metric. On one cluster, set up once, it runs
//
//  1. the workload as the untraced run drives it, for half the window, for
//     the live per-op counts of every layer;
//  2. one closed-loop client untraced, for a fifth of the window — the
//     baseline of the tracing overhead;
//  3. the same one client with spans recorded, for half the window — with
//     one request in flight every span inside a client op's interval
//     belongs to that request, which gives the request-path budget;
//
// then the correctness gate, then the probes.
func runTraced(cfg runConfig) (*result, error) {
	nclients := numClients()
	st, err := generate(cfg.spec, nclients, cfg.seed, streamLen(cfg.spec, cfg.window))
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.spec.name, Traced: true, Seed: cfg.seed, WindowS: cfg.window.Seconds(), Clients: nclients,
		StreamHash: fmt.Sprintf("%016x", st.hash), Metrics: map[string]metric{}}
	tr := newTracer()
	settleDisk()
	p, err := setUp(cfg, st, nclients, tr)
	if err != nil {
		return nil, err
	}
	d, l := p.d, p.l
	defer d.close()

	// 1. Live counts under the workload's own load.
	acked := func() float64 {
		n := 0
		for _, c := range d.clients {
			n += len(c.rec)
			c.rec = c.rec[:0]
		}
		return float64(n)
	}
	runtime.GC()
	before := d.snapshot()
	single := p.cursors
	if cfg.spec.openRate > 0 {
		n := min(int(float64(cfg.spec.openRate)*cfg.window.Seconds()/2), len(p.rest))
		l.openLoop(p.rest[:n], cfg.spec.openRate, true)
		single = []*cursor{{ops: p.rest[n:]}}
	} else {
		l.closedLoop(d.clients, p.cursors, true, func(_ int, since time.Duration) bool { return since >= cfg.window/2 })
	}
	n := acked()
	if n == 0 {
		return nil, errors.New("no operation was acknowledged under load")
	}
	liveCounts(res, cfg.spec, before, d.snapshot(), n)

	// 2 and 3. One client, untraced then traced.
	one := func(dur time.Duration) float64 {
		_, elapsed := l.closedLoop(d.clients[:1], single[:1], true, func(_ int, since time.Duration) bool { return since >= dur })
		return acked() / elapsed.Seconds()
	}
	plain := one(cfg.window / 5)
	tr.on.Store(true)
	traced := one(cfg.window / 2)
	tr.on.Store(false)
	if plain == 0 || traced == 0 {
		return nil, errors.New("no operation was acknowledged by the single traced client")
	}
	res.set("trace_overhead_pct", 100*(plain-traced)/plain, "%", 1)
	res.set("traced_ops_s", traced, "1/s", 1)

	l.outcome(res)
	d.quiesce()
	if _, res.Check, err = d.gate(st); err != nil {
		return nil, err
	}
	res.Correct = res.Check.ok()
	d.quiesce()

	if err := runProbes(res, cfg, d, st); err != nil {
		return nil, err
	}

	b := tr.attribute(cfg.window.Seconds() / 2)
	res.Budget = b
	res.set("background_span_ms_per_s", b.BackgroundMsPerS, "ms/s", b.Spans)
	for name, ob := range map[string]*opBudget{"get": b.Get, "put": b.Put} {
		if ob == nil {
			ob = &opBudget{} // a workload without this op kind reports zeros
		}
		res.set(name+"_client_op_us", ob.ClientOpUs, "us", ob.Ops)
		res.set(name+"_client_hop_us", ob.ClientHopUs, "us", ob.Ops)
		res.set(name+"_coord_handle_us", ob.CoordHandleUs, "us", ob.Ops)
		res.set(name+"_repl_rtt_us", ob.ReplRTTUs, "us", ob.Ops)
		res.set(name+"_quorum_wait_us", ob.QuorumWaitUs, "us", ob.Ops)
		res.set(name+"_replica_handle_us", ob.ReplicaHandleUs, "us", ob.Ops)
		res.set(name+"_coord_self_us", ob.CoordSelfUs, "us", ob.Ops)
	}
	// Local apply inside the coordinator cannot be spanned from outside
	// (the store is not injectable into node.Config); it is estimated from
	// the storage probe and labelled so.
	if b.Put != nil {
		apply := res.Metrics["store_put_us"].Value
		res.set("local_apply_est_us", apply, "us", res.Metrics["store_put_us"].Samples)
		res.set("coord_self_us", b.Put.CoordHandleUs-apply-b.Put.QuorumWaitUs, "us", b.Put.Ops)
	}
	if cfg.spansOut != "" {
		if err := tr.dump(cfg.spansOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}
