package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/node"
	"repro/internal/storage"
	"repro/internal/transport"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	spec     spec
	seed     int64
	window   time.Duration
	setups   int    // how many times set-up is repeated; setup_s is the median
	dataRoot string // parent of the node data directories
	trace    bool
	spansOut string // traced run only: file that receives the raw spans
	// probeBudget bounds each per-layer probe of the traced run.
	probeBudget time.Duration
}

// metric is one reported number. Samples, where set, is how many raw samples
// the value was read from.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one run reports. Metrics holds every metric measured;
// main cuts it down to what BENCHMARK.json declares for the contract line.
type result struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Seed       int64             `json:"seed"`
	WindowS    float64           `json:"window_s"`
	Clients    int               `json:"clients"`
	StreamHash string            `json:"stream_hash"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	Check      verdict           `json:"check"`
	Reopened   *verdict          `json:"check_after_reopen,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Budget     *budget           `json:"request_budget,omitempty"`
}

func (r *result) set(name string, value float64, unit string, n int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, Samples: n}
}

// numClients is C = min(nproc, 4).
func numClients() int { return min(runtime.NumCPU(), 4) }

// counters is a snapshot of every cumulative count the metrics are deltas of.
type counters struct {
	mallocs                           uint64
	wireBytes, msgs, flushes, reconns uint64
	node                              node.Stats // summed over nodes (gauges excluded)
	eng                               storage.Stats
	walBytes                          int64
	queueDelayP99                     uint64 // max over nodes, ns (a gauge)
}

func (d *deployment) snapshot() counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	meter := func(m *transport.Mux) {
		c.wireBytes += m.BytesSent()
		c.msgs += m.MessagesSent()
		c.flushes += m.Flushes()
		c.reconns += m.Reconnects()
	}
	for _, m := range d.muxes {
		meter(m)
	}
	for _, cl := range d.clients {
		meter(cl.mux)
	}
	for _, nd := range d.nodes {
		s := nd.Stats()
		c.node.ClientGets += s.ClientGets
		c.node.ClientPuts += s.ClientPuts
		c.node.ReplGets += s.ReplGets
		c.node.ReplPuts += s.ReplPuts
		c.node.ReplBatches += s.ReplBatches
		c.node.BatchedKeys += s.BatchedKeys
		c.node.ReadRepairs += s.ReadRepairs
		c.node.Forwards += s.Forwards
		c.node.QuorumFailures += s.QuorumFailures
		c.node.HintsStored += s.HintsStored
		c.node.SessionWaits += s.SessionWaits
		c.node.AERounds += s.AERounds
		c.node.AETreeRounds += s.AETreeRounds
		c.node.AETreeNodes += s.AETreeNodes
		c.node.Shed += s.Shed
		c.queueDelayP99 = max(c.queueDelayP99, s.QueueDelayP99)
		e := nd.Store().Stats()
		c.eng.Puts += e.Puts
		c.eng.Syncs += e.Syncs
		c.eng.WALSyncs += e.WALSyncs
		c.eng.Checkpoints += e.Checkpoints
		c.eng.Spills += e.Spills
		c.eng.Faults += e.Faults
		c.walBytes += nd.Store().WALSize()
	}
	return c
}

// quiesce waits until replication, repair and merges have stopped moving.
func (d *deployment) quiesce() {
	activity := func() (n uint64) {
		for _, nd := range d.nodes {
			s, e := nd.Stats(), nd.Store().Stats()
			n += s.ReplBatches + s.ReplPuts + s.ReadRepairs + e.Syncs + e.Puts
		}
		return n
	}
	last, still := activity(), 0
	for deadline := time.Now().Add(3 * time.Second); still < 2 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		if now := activity(); now == last {
			still++
		} else {
			last, still = now, 0
		}
	}
}

// dirBytes sums the sizes of the files under the given directories.
func dirBytes(dirs []string) int64 {
	var total int64
	for _, dir := range dirs {
		filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				if info, ierr := e.Info(); ierr == nil {
					total += info.Size()
				}
			}
			return nil
		})
	}
	return total
}

// prepared is a deployment that has been brought up, preloaded and warmed:
// ready for its first timed op.
type prepared struct {
	d       *deployment
	l       *load
	cursors []*cursor // closed loop
	rest    []op      // open loop: the ops after the warm-up
	setupS  float64
}

// setUp does everything before the first timed op: cluster bring-up, preload
// and the warm-up ops. Its duration is one setup_s sample.
func setUp(cfg runConfig, st *stream, nclients int, tr *tracer) (*prepared, error) {
	t0 := time.Now()
	d, err := bringUp(cfg.spec, nclients, cfg.dataRoot, tr)
	if err != nil {
		return nil, err
	}
	if cfg.spec.preload {
		if err := d.preload(st); err != nil {
			d.close()
			return nil, err
		}
	}
	p := &prepared{d: d, l: &load{d: d, st: st, tr: tr, epoch: t0}}
	if cfg.spec.openRate > 0 {
		p.l.openLoop(st.ops[:cfg.spec.warmOps], cfg.spec.openRate, false)
		p.rest = st.ops[cfg.spec.warmOps:]
	} else {
		p.cursors = split(st, nclients)
		each := cfg.spec.warmOps / nclients
		p.l.closedLoop(d.clients, p.cursors, false, func(done int, _ time.Duration) bool { return done >= each })
	}
	p.setupS = time.Since(t0).Seconds()
	return p, nil
}

// streamLen is how many ops a run generates up front.
func streamLen(s spec, window time.Duration) int {
	rate := s.streamRate
	if s.openRate > 0 {
		rate = s.openRate
	}
	return s.warmOps + int(float64(rate)*window.Seconds())
}

// runWorkload is the untraced run: the end-to-end metrics.
func runWorkload(cfg runConfig) (*result, error) {
	nclients := numClients()
	st, err := generate(cfg.spec, nclients, cfg.seed, streamLen(cfg.spec, cfg.window))
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.spec.name, Seed: cfg.seed, WindowS: cfg.window.Seconds(), Clients: nclients,
		StreamHash: fmt.Sprintf("%016x", st.hash), Metrics: map[string]metric{}}

	// Set-up is repeated on a fresh cluster each time and the median
	// reported; the last cluster takes the measured window.
	var p *prepared
	var setupTimes []float64
	for i := 0; i < cfg.setups; i++ {
		if p != nil {
			p.d.close()
		}
		settleDisk()
		if p, err = setUp(cfg, st, nclients, nil); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, p.setupS)
	}
	d, l := p.d, p.l
	defer d.close()
	res.set("setup_s", median(setupTimes), "s", len(setupTimes))

	runtime.GC()
	warmFailed := l.failed.Load()
	before := d.snapshot()
	var start time.Time
	var elapsed time.Duration
	if cfg.spec.openRate > 0 {
		l.late = make([]int64, 0, len(p.rest))
		start, elapsed = l.openLoop(p.rest, cfg.spec.openRate, true)
	} else {
		start, elapsed = l.closedLoop(d.clients, p.cursors, true, func(_ int, since time.Duration) bool { return since >= cfg.window })
	}
	after := d.snapshot()

	d.quiesce()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var parts [][]sample
	for _, c := range d.clients {
		parts = append(parts, c.rec)
	}
	rec := newRecording(parts, int64(start.Sub(l.epoch)), cfg.window)
	acked := float64(len(rec.all))
	if acked == 0 {
		return nil, errors.New("no operation was acknowledged in the window")
	}
	l.outcome(res)

	// Throughput and the gated latencies are medians over the window's
	// one-second slices. The open loop's achieved rate is acknowledged ops
	// over the whole run of the window: it must equal the offered rate.
	n := len(rec.all)
	if cfg.spec.openRate > 0 {
		res.set("throughput_ops_s", acked/elapsed.Seconds(), "1/s", n)
	} else {
		res.set("throughput_ops_s", median(rec.sliceRate), "1/s", n)
	}
	res.set("op_p50_us", median(rec.sliceP50), "us", n)
	res.set("op_p90_us", median(rec.sliceP90), "us", n)
	res.set("put_p50_us", median(rec.slicePutP50), "us", len(rec.put))
	// Whole-window percentiles from the raw sorted samples; a p99 only
	// where at least ten samples lie beyond it.
	whole := func(name string, s samples, q float64) {
		if v, ok := s.us(q); ok {
			res.set(name, v, "us", len(s))
		}
	}
	whole("op_p99_us", rec.all, 0.99)
	whole("get_p50_us", rec.get, 0.50)
	whole("get_p99_us", rec.get, 0.99)
	whole("put_p99_us", rec.put, 0.99)
	windowAttempted := res.Attempted - int64(cfg.spec.warmOps)
	res.set("failed_share", float64(res.Failed-warmFailed)/float64(max(windowAttempted, 1)), "ratio", int(windowAttempted))
	res.set("allocs_per_op", float64(after.mallocs-before.mallocs)/acked, "count", n)
	res.set("wire_bytes_per_op", float64(after.wireBytes-before.wireBytes)/acked, "B", n)
	res.set("heap_live_mb", float64(ms.HeapInuse)/(1<<20), "MB", 1)
	if len(l.late) > 0 {
		v, _ := merge(l.late).us(0.99)
		res.set("generator_late_p99_us", v, "us", len(l.late))
	}
	liveCounts(res, cfg.spec, before, after, acked)

	// Correctness gate, then the quantities that need the settled cluster.
	h, check, err := d.gate(st)
	if err != nil {
		return nil, err
	}
	res.Check = check
	d.quiesce()
	var meta, keys int
	for _, nd := range d.nodes {
		meta += nd.Store().TotalMetadataBytes()
		keys += nd.Store().Len()
	}
	res.set("metadata_bytes_per_key", float64(meta)/float64(max(keys, 1)), "B", keys)
	res.set("siblings_per_key_max", float64(res.Check.MaxSiblings), "count", res.Check.KeysChecked)
	if cfg.spec.durable {
		res.set("disk_bytes_per_user_byte", float64(dirBytes(d.dirs))/float64(keys*cfg.spec.valueBytes), "ratio", keys)
	}
	res.Correct = res.Check.ok()

	if cfg.spec.fsync {
		// Crash-shaped restart: close every replica without a checkpoint,
		// reopen the directories, and every acknowledged write must be
		// readable from what the WALs hold.
		d.closeNodes()
		t0 := time.Now()
		var engines []storage.Engine
		for _, dir := range d.dirs {
			e, err := storage.Open(d.mech, cfg.spec.engineOptions(dir))
			if err != nil {
				return nil, fmt.Errorf("reopen %s: %w", dir, err)
			}
			defer e.Close()
			engines = append(engines, e)
		}
		res.set("recovery_ms", float64(time.Since(t0).Microseconds())/1e3, "ms", len(engines))
		v := h.judge(readReopened(d.mech, engines, h))
		res.Reopened = &v
		res.Correct = res.Correct && v.ok()
	}
	return res, nil
}

// liveCounts derives the per-op layer counts from two counter snapshots of
// the live cluster.
func liveCounts(res *result, s spec, a, b counters, acked float64) {
	ratio := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	n := int(acked)
	puts := b.node.ClientPuts - a.node.ClientPuts
	gets := b.node.ClientGets - a.node.ClientGets
	// Every engine access of the request path: local and replica reads,
	// local applies and replica merges.
	accesses := gets + (b.node.ReplGets - a.node.ReplGets) + (b.eng.Puts - a.eng.Puts) + (b.eng.Syncs - a.eng.Syncs)
	faults := b.eng.Faults - a.eng.Faults
	res.set("msgs_per_op", float64(b.msgs-a.msgs)/acked, "count", n)
	res.set("flushes_per_op", float64(b.flushes-a.flushes)/acked, "count", n)
	res.set("frames_per_flush", ratio(b.msgs-a.msgs, b.flushes-a.flushes), "count", n)
	res.set("reconnects", float64(b.reconns-a.reconns), "count", n)
	res.set("repl_rpcs_per_op", float64((b.node.ReplBatches-a.node.ReplBatches)+(b.node.ReplPuts-a.node.ReplPuts)+(b.node.ReplGets-a.node.ReplGets))/acked, "count", n)
	res.set("batched_keys_per_batch", ratio(b.node.BatchedKeys-a.node.BatchedKeys, b.node.ReplBatches-a.node.ReplBatches), "count", n)
	res.set("read_repairs_per_get", ratio(b.node.ReadRepairs-a.node.ReadRepairs, gets), "count", int(gets))
	res.set("forwards", float64(b.node.Forwards-a.node.Forwards), "count", n)
	res.set("quorum_failures", float64(b.node.QuorumFailures-a.node.QuorumFailures), "count", n)
	res.set("hints_stored", float64(b.node.HintsStored-a.node.HintsStored), "count", n)
	res.set("session_waits", float64(b.node.SessionWaits-a.node.SessionWaits), "count", n)
	res.set("ae_rounds", float64(b.node.AERounds-a.node.AERounds), "count", n)
	res.set("ae_tree_nodes_per_round", ratio(b.node.AETreeNodes-a.node.AETreeNodes, b.node.AETreeRounds-a.node.AETreeRounds), "count", n)
	res.set("shed", float64(b.node.Shed-a.node.Shed), "count", n)
	res.set("queue_delay_p99_us", float64(b.queueDelayP99)/1e3, "us", n)
	res.set("wal_syncs_per_put", ratio(b.eng.WALSyncs-a.eng.WALSyncs, puts), "count", int(puts))
	res.set("wal_bytes_per_user_byte", ratio(uint64(b.walBytes-a.walBytes), puts*uint64(s.valueBytes)), "ratio", int(puts))
	res.set("cache_hit_ratio", 1-min(1, ratio(faults, accesses)), "ratio", int(accesses))
	res.set("segment_faults_per_get", ratio(faults, gets), "count", int(gets))
	res.set("spills", float64(b.eng.Spills-a.eng.Spills), "count", n)
	res.set("checkpoints", float64(b.eng.Checkpoints-a.eng.Checkpoints), "count", n)
}

// settleDisk flushes pending file-system work. Deleting a run's data
// directories leaves journal commits (and, on a file system mounted with
// discard, trims) that complete seconds later and stall whoever writes next —
// measured here as 60-80 ms stalls in a read-tiered-open run started right
// after a put-fsync run. Called before every set-up and after the last
// clean-up, so neither an earlier process nor an earlier set-up of this one
// reaches into a measured window.
func settleDisk() { syscall.Sync() }

// dataRootFor makes a fresh directory for one run's node data under
// .bench_build in the working directory (the checkout), so the benchmark
// writes nowhere else.
func dataRootFor() (string, error) {
	base := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
