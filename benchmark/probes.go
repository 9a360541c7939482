package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Per-layer probes: after a workload has run, time calls into each layer's
// public functions from outside, on that workload's data — states sampled
// from the final cluster and the recorded op stream. Each probe runs for
// the configured budget or probeCalls calls, whichever ends first, and
// reports the median.
const (
	defaultProbeBudget = 250 * time.Millisecond
	probeCalls         = 20000
	probeStates        = 256 // sampled keys
	probeIDBase        = 90000000
)

func toUs(ns float64) float64 { return ns / 1e3 }

// prober times calls, each probe for at most its budget.
type prober struct{ budget time.Duration }

// perCall times f call by call (for calls of a microsecond and up) and
// returns the median in nanoseconds and the call count.
func (pb prober) perCall(f func(i int)) (float64, int) {
	var d []int64
	for start := time.Now(); len(d) < probeCalls && time.Since(start) < pb.budget; {
		t0 := time.Now()
		f(len(d))
		d = append(d, int64(time.Since(t0)))
	}
	ns, _ := merge(d).quantile(0.5)
	return float64(ns), len(d)
}

// batched times f in batches of 64 calls (for calls of tens of nanoseconds,
// where reading the clock per call would dominate) and returns the median
// batch mean in nanoseconds, allocations per call, and the call count.
func (pb prober) batched(f func(i int)) (ns, allocs float64, calls int) {
	const batch = 64
	var means []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for start := time.Now(); calls < probeCalls*batch && time.Since(start) < pb.budget; {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			f(calls + j)
		}
		means = append(means, float64(time.Since(t0))/batch)
		calls += batch
	}
	runtime.ReadMemStats(&m1)
	return median(means), float64(m1.Mallocs-m0.Mallocs) / float64(calls), calls
}

// concurrently runs perCall on n goroutines at once and returns the median
// over all their calls.
func (pb prober) concurrently(n int, f func(worker, i int)) (float64, int) {
	var (
		mu  sync.Mutex
		all []int64
		wg  sync.WaitGroup
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var d []int64
			for start := time.Now(); len(d) < probeCalls && time.Since(start) < pb.budget; {
				t0 := time.Now()
				f(w, len(d))
				d = append(d, int64(time.Since(t0)))
			}
			mu.Lock()
			all = append(all, d...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	ns, _ := merge(all).quantile(0.5)
	return float64(ns), len(all)
}

// sampled is one key's state as two replicas hold it at the end of the run.
type sampled struct {
	key  string
	a, b core.State
}

// runProbes fills res with every probe metric. The deployment must be
// quiesced and checked already: the node probes write to it.
func runProbes(res *result, cfg runConfig, d *deployment, st *stream) error {
	pb := prober{budget: defaultProbeBudget}
	if cfg.probeBudget > 0 {
		pb.budget = cfg.probeBudget
	}
	mech := d.mech
	var states []sampled
	seen := map[uint32]bool{}
	for _, o := range st.ops {
		if seen[o.key] {
			continue
		}
		seen[o.key] = true
		key := st.keyNames[o.key]
		a, okA := d.nodes[0].Store().Snapshot(key)
		b, okB := d.nodes[1].Store().Snapshot(key)
		if okA && okB {
			states = append(states, sampled{key, a, b})
		}
		if len(states) == probeStates {
			break
		}
	}
	if len(states) == 0 {
		return fmt.Errorf("probes: no key of the stream has state on the cluster")
	}
	pick := func(i int) sampled { return states[i%len(states)] }
	value := valueFor(probeIDBase, cfg.spec.valueBytes)

	// dvv/vv + core: the clock kernel through the Mechanism surface.
	ctxs := make([]core.Context, len(states))
	for i, s := range states {
		ctxs[i] = mech.Read(s.a).Ctx
	}
	ns, allocs, n := pb.batched(func(i int) {
		_, _ = mech.Put(pick(i).a, ctxs[i%len(ctxs)], value, core.WriteInfo{Server: d.ids[0], Client: "probe"})
	})
	res.set("kernel_put_ns", ns, "ns", n)
	res.set("kernel_put_allocs", allocs, "count", n)
	ns, allocs, n = pb.batched(func(i int) { _ = mech.Sync(pick(i).a, pick(i).b) })
	res.set("kernel_sync_ns", ns, "ns", n)
	res.set("kernel_sync_allocs", allocs, "count", n)
	ns, allocs, n = pb.batched(func(i int) { _ = mech.Read(pick(i).a) })
	res.set("kernel_read_ns", ns, "ns", n)
	res.set("kernel_read_allocs", allocs, "count", n)

	// codec: state and message encode/decode.
	encoded := make([][]byte, len(states))
	replies := make([][]byte, len(states))
	var sizes, replySizes []float64
	for i, s := range states {
		w := codec.NewWriter(256)
		mech.EncodeState(w, s.a)
		encoded[i] = w.Bytes()
		replies[i] = node.EncodeReadResult(mech, mech.Read(s.a))
		sizes = append(sizes, float64(len(encoded[i])))
		replySizes = append(replySizes, float64(len(replies[i])))
	}
	res.set("state_bytes", median(sizes), "B", len(sizes))
	ns, _, n = pb.batched(func(i int) {
		w := codec.GetPooledWriter()
		mech.EncodeState(w, pick(i).a)
		codec.PutPooledWriter(w)
	})
	res.set("state_enc_ns", ns, "ns", n)
	ns, _, n = pb.batched(func(i int) { _, _ = mech.DecodeState(codec.NewReader(encoded[i%len(encoded)])) })
	res.set("state_dec_ns", ns, "ns", n)
	var reqSizes []float64
	ns, _, n = pb.batched(func(i int) {
		body := node.EncodePutRequest(mech, pick(i).key, value, "probe", node.WriteOptions{Context: ctxs[i%len(ctxs)]})
		if i < len(states) {
			reqSizes = append(reqSizes, float64(len(body)))
		}
	})
	res.set("req_enc_ns", ns, "ns", n)
	ns, _, n = pb.batched(func(i int) { _, _ = node.DecodeReadResult(mech, replies[i%len(replies)]) })
	res.set("resp_dec_ns", ns, "ns", n)

	// ring: placement.
	ns, _, n = pb.batched(func(i int) { _ = d.ring.Preference(pick(i).key, replN) })
	res.set("ring_pref_ns", ns, "ns", n)

	if err := probeStorage(pb, res, cfg, d.ring, st, states); err != nil {
		return err
	}
	if err := probeTransport(pb, res, len(d.clients), int(median(reqSizes)), int(median(replySizes))); err != nil {
		return err
	}

	// antientropy: one tick against a peer that already agrees. The first
	// calls repair whatever the run left diverged; the timed ones are idle.
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := d.nodes[0].AntiEntropyWith(ctx, d.ids[1]); err != nil {
			return fmt.Errorf("probe anti-entropy: %w", err)
		}
	}
	ns, n = pb.perCall(func(int) { d.nodes[0].AntiEntropyWith(ctx, d.ids[1]) })
	res.set("ae_idle_tick_us", toUs(ns), "us", n)

	// node: the coordinator called directly, no client hop.
	var getNs, putNs []int64
	var perr error
	for start := time.Now(); len(putNs) < probeCalls && time.Since(start) < 2*pb.budget && perr == nil; {
		i := len(putNs)
		key := pick(i).key
		coord, _ := d.ring.Coordinator(key)
		nd := d.nodes[slices.Index(d.ids, coord)]
		t0 := time.Now()
		rr, err := nd.CoordinateGet(ctx, key, node.ReadOptions{NotFoundOK: true})
		t1 := time.Now()
		if err == nil {
			_, err = nd.CoordinatePut(ctx, key, valueFor(probeIDBase+uint32(i), cfg.spec.valueBytes), "probe", node.WriteOptions{Context: rr.Ctx})
		}
		getNs, putNs, perr = append(getNs, int64(t1.Sub(t0))), append(putNs, int64(time.Since(t1))), err
	}
	if perr != nil {
		return fmt.Errorf("probe coordinator: %w", perr)
	}
	g, _ := merge(getNs).quantile(0.5)
	p, _ := merge(putNs).quantile(0.5)
	res.set("coord_get_us", toUs(float64(g)), "us", len(getNs))
	res.set("coord_put_us", toUs(float64(p)), "us", len(putNs))
	return nil
}

// probeStorage times Engine.Put/Get/SyncKey on a fresh engine opened the way
// node.New opens the workload's, fed the recorded stream: single-threaded,
// then puts again at C writers (where group commit and shard locks show).
func probeStorage(pb prober, res *result, cfg runConfig, rg *ring.Ring, st *stream, states []sampled) error {
	mech := core.NewDVV()
	var eng storage.Engine
	if cfg.spec.durable {
		dir := filepath.Join(cfg.dataRoot, "probe-store")
		defer os.RemoveAll(dir)
		var err error
		if eng, err = storage.Open(mech, cfg.spec.engineOptions(dir)); err != nil {
			return fmt.Errorf("probe storage: %w", err)
		}
	} else {
		eng = storage.NewSharded(mech, storage.DefaultShards)
	}
	defer eng.Close()
	if cfg.spec.preload {
		if err := preloadEngine(mech, rg, eng, st, cfg.spec.valueBytes); err != nil {
			return err
		}
	}
	value := valueFor(probeIDBase, cfg.spec.valueBytes)
	// put applies one write op the way the coordinator does: a context put
	// presents what the engine currently holds for the key.
	put := func(o op) error {
		key := st.keyNames[o.key]
		ctx := mech.EmptyContext()
		if rr, ok := eng.Get(key); ok && o.kind == opPut {
			ctx = rr.Ctx
		}
		_, err := eng.Put(key, ctx, value, core.WriteInfo{Server: "n00", Client: "probe"})
		return err
	}
	var perr error

	// The stream in order, each op timed as its own kind. Reads of the
	// context a put presents are part of the put, as on the coordinator.
	var getNs, putNs []int64
	for start, i := time.Now(), 0; i < len(st.ops) && i < probeCalls && time.Since(start) < 2*pb.budget; i++ {
		o := st.ops[i]
		t0 := time.Now()
		if o.kind == opGet {
			_, _ = eng.Get(st.keyNames[o.key])
			getNs = append(getNs, int64(time.Since(t0)))
		} else {
			if err := put(o); err != nil {
				perr = err
			}
			putNs = append(putNs, int64(time.Since(t0)))
		}
	}
	if len(getNs) == 0 { // a write-only stream: read the keys it wrote
		ns, _ := pb.perCall(func(i int) { _, _ = eng.Get(st.keyNames[st.ops[i%len(st.ops)].key]) })
		getNs = append(getNs, int64(ns))
	}
	g, _ := merge(getNs).quantile(0.5)
	p, _ := merge(putNs).quantile(0.5)
	res.set("store_get_us", toUs(float64(g)), "us", len(getNs))
	res.set("store_put_us", toUs(float64(p)), "us", len(putNs))

	ns, n := pb.perCall(func(i int) {
		s := states[i%len(states)]
		if err := eng.SyncKey(s.key, s.a); err != nil {
			perr = err
		}
	})
	res.set("store_sync_us", toUs(ns), "us", n)

	workers := numClients()
	cursors := split(st, workers)
	var mu sync.Mutex
	ns, n = pb.concurrently(workers, func(w, _ int) {
		o, _ := cursors[w].next()
		if err := put(o); err != nil {
			mu.Lock()
			perr = err
			mu.Unlock()
		}
	})
	res.set("store_put_c_us", toUs(ns), "us", n)
	if perr != nil {
		return fmt.Errorf("probe storage: %w", perr)
	}
	return nil
}

// probeTransport times Mux.Send to an echo handler over loopback TCP at the
// workload's median request and response sizes, with 1 and with C requests
// in flight.
func probeTransport(pb prober, res *result, c, reqBytes, respBytes int) error {
	srv := transport.NewMux("echo", map[dot.ID]string{"echo": "127.0.0.1:0"})
	if err := srv.Listen(); err != nil {
		return fmt.Errorf("probe transport: %w", err)
	}
	defer srv.Close()
	reply := make([]byte, respBytes)
	srv.Register("echo", func(context.Context, dot.ID, transport.Request) transport.Response {
		return transport.Response{Body: reply}
	})
	cl := transport.NewMux("prober", nil)
	defer cl.Close()
	cl.SetAddr("echo", srv.Addr())
	req := transport.Request{Method: "echo", Body: make([]byte, reqBytes)}
	var mu sync.Mutex
	var perr error
	send := func(int, int) {
		if _, err := cl.Send(context.Background(), "prober", "echo", req); err != nil {
			mu.Lock()
			perr = err
			mu.Unlock()
		}
	}
	send(0, 0) // dial
	ns, n := pb.concurrently(1, send)
	res.set("rtt_1_us", toUs(ns), "us", n)
	ns, n = pb.concurrently(c, send)
	res.set("rtt_c_us", toUs(ns), "us", n)
	if perr != nil {
		return fmt.Errorf("probe transport: %w", perr)
	}
	return nil
}
