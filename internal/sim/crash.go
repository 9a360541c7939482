package sim

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/dvvset"
	"repro/internal/stats"
	"repro/internal/storage"
)

// CrashConfig parameterises the E2 durability experiment: continuous
// client writes through a durable cluster while one replica is killed at a
// random byte offset of its write-ahead log (an injected failpoint tears
// the record straddling that offset, exactly as a power cut would) and
// then restarted from its data directory.
type CrashConfig struct {
	Nodes   int
	N, R, W int
	// Clients each own one key and run WritesPerClient acknowledged
	// read-modify-write chains, so the per-key oracle is "exactly the last
	// acknowledged value, as a single sibling".
	Clients         int
	WritesPerClient int
	RetryLimit      int
	SuspicionWindow time.Duration
	Seed            int64
	// Fsync: the cluster acks only WAL-fsynced writes (the mode under
	// which the zero-lost-acked-writes oracle is meaningful).
	Fsync bool
	// CrashJitter is the byte window for the random crash offset: once the
	// workload reaches a random progress point, the victim is armed to die
	// when its WAL crosses its current size plus rand(CrashJitter) bytes —
	// a byte offset with no relation to record boundaries, so the tear
	// lands anywhere inside a record's frame.
	CrashJitter int64
	// Engine selects each node's storage engine ("" = memory); MemBudget
	// bounds the tiered engine's hot cache, so a small budget forces the
	// crash to land while most of the acked keyspace is cold on segments.
	Engine    string
	MemBudget int64
}

// DefaultCrashConfig is sized to finish in a few seconds under -race.
func DefaultCrashConfig() CrashConfig {
	return CrashConfig{
		Nodes: 5, N: 3, R: 2, W: 2,
		Clients: 16, WritesPerClient: 12, RetryLimit: 400,
		SuspicionWindow: 40 * time.Millisecond,
		Seed:            23,
		Fsync:           true,
		CrashJitter:     1 << 10,
	}
}

// CrashResult is the outcome of one crash-recovery run.
type CrashResult struct {
	Mechanism   string
	AckedWrites int
	Retries     int
	Incomplete  int

	Crashed     dot.ID
	CrashOffset int64
	// Fired reports whether the failpoint actually tore the log (false
	// only if the workload finished under the crash offset).
	Fired bool
	// Recovered summarises what the restarted replica found on disk.
	RecoveredKeys int
	WALReplayed   int
	TornBytes     int64

	// Oracle outcomes; all three must be zero for a clean run.
	Lost           int
	FalseConflicts int
	// DuplicateDots counts dots observed with more than one distinct value
	// across all replicas and siblings — the paper-correctness hazard of a
	// recovering replica re-minting an issued dot.
	DuplicateDots int
	PendingHints  int
}

// Clean reports whether the run proved anything and proved it cleanly:
// the crash must actually have fired (a workload that finished under the
// armed offset tested nothing), every write must have been acknowledged
// within its retry budget (abandoned writes make the per-key oracle
// vacuous), and the oracle counters must all be zero.
func (r CrashResult) Clean() bool {
	return r.Fired && r.Incomplete == 0 &&
		r.Lost == 0 && r.FalseConflicts == 0 && r.DuplicateDots == 0 && r.PendingHints == 0
}

// RunCrash drives the E2 experiment for each mechanism (default DVV and
// DVVSet) and renders the oracle table.
func RunCrash(cfg CrashConfig, mechs ...core.Mechanism) ([]CrashResult, *stats.Table, error) {
	if cfg.Nodes == 0 {
		cfg = DefaultCrashConfig()
	}
	if cfg.CrashJitter <= 0 {
		cfg.CrashJitter = DefaultCrashConfig().CrashJitter
	}
	if len(mechs) == 0 {
		mechs = []core.Mechanism{core.NewDVV(), core.NewDVVSet()}
	}
	results := make([]CrashResult, 0, len(mechs))
	for _, m := range mechs {
		res, err := runCrashOne(cfg, m)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: crash %s: %w", m.Name(), err)
		}
		results = append(results, res)
	}
	t := stats.NewTable("E2 — crash at a random WAL offset, restart, recover: acked writes and dot uniqueness",
		"mechanism", "acked", "incomplete", "retries", "crashed", "fired", "offset", "replayed",
		"torn-bytes", "lost", "false-conflicts", "dup-dots", "pending-hints", "verdict")
	for _, r := range results {
		verdict := "CLEAN"
		switch {
		case !r.Fired:
			verdict = "NO-CRASH" // the workload finished under the armed offset
		case !r.Clean():
			verdict = "DIVERGED"
		}
		t.AddRow(r.Mechanism, r.AckedWrites, r.Incomplete, r.Retries, r.Crashed, r.Fired,
			r.CrashOffset, r.WALReplayed, r.TornBytes, r.Lost, r.FalseConflicts,
			r.DuplicateDots, r.PendingHints, verdict)
	}
	return results, t, nil
}

func runCrashOne(cfg CrashConfig, mech core.Mechanism) (CrashResult, error) {
	dataRoot, err := os.MkdirTemp("", "dvv-crash-*")
	if err != nil {
		return CrashResult{}, err
	}
	defer os.RemoveAll(dataRoot)

	c, err := cluster.New(cluster.Config{
		Mech: mech, Nodes: cfg.Nodes, N: cfg.N, R: cfg.R, W: cfg.W,
		ReadRepair: true, HintedHandoff: true, SloppyQuorum: true,
		SuspicionWindow: cfg.SuspicionWindow,
		Timeout:         2 * time.Second,
		Seed:            cfg.Seed,
		DataRoot:        dataRoot,
		Fsync:           cfg.Fsync,
		Engine:          cfg.Engine,
		MemBudget:       cfg.MemBudget,
	})
	if err != nil {
		return CrashResult{}, err
	}
	defer c.Close()

	res := CrashResult{Mechanism: mech.Name()}
	rng := rand.New(rand.NewSource(cfg.Seed * 31))
	victim := c.Nodes[1]
	res.Crashed = victim.ID()
	crashCh := make(chan struct{})

	// The crash point is drawn in two random steps: a workload progress
	// point in the middle third of the acked-write count, and a byte
	// jitter past the victim's WAL size at that moment. The jitter puts
	// the tear at an arbitrary byte of an upcoming record's frame.
	total := cfg.Clients * cfg.WritesPerClient
	armAt := int64(total)/3 + rng.Int63n(int64(total)/3+1)
	jitter := 1 + rng.Int63n(cfg.CrashJitter)

	var acked, retries, incomplete atomic.Int64
	lastAcked := make([]string, cfg.Clients)
	ctx := context.Background()
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	for i := 0; i < cfg.Clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// RouteRandom: when the victim is down, retries land on live
			// members, and preference-list members coordinate around the
			// corpse via sloppy quorums.
			cl := c.NewClient(dot.ID(fmt.Sprintf("crasher-%02d", i)), cluster.RouteRandom)
			key := fmt.Sprintf("crash-key-%02d", i)
			for seq := 1; seq <= cfg.WritesPerClient; seq++ {
				val := fmt.Sprintf("c%02d-w%04d", i, seq)
				ok := false
				for attempt := 0; attempt <= cfg.RetryLimit; attempt++ {
					if attempt > 0 {
						retries.Add(1)
						time.Sleep(time.Millisecond)
					}
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

	// The armer: once the workload crosses the progress point, freeze the
	// victim's current WAL size and set the failpoint a random few bytes
	// past it. res.CrashOffset is read only after armerDone.
	armerDone := make(chan struct{})
	go func() {
		defer close(armerDone)
		for acked.Load() < armAt {
			select {
			case <-writersDone:
				return
			default:
				time.Sleep(200 * time.Microsecond)
			}
		}
		res.CrashOffset = victim.Store().WALSize() + jitter
		victim.Store().FailWALAt(res.CrashOffset, func() { close(crashCh) })
	}()

	// The reaper: when the failpoint fires, hard-kill the victim (no
	// leave, no handoff — a crash) and restart it from its directory.
	reaperDone := make(chan error, 1)
	go func() {
		select {
		case <-crashCh:
			res.Fired = true
		case <-writersDone:
			// Workload finished; if the failpoint fired on one of its last
			// writes both channels are ready and select picks either —
			// re-check so a real crash is never reported as Fired=false.
			select {
			case <-crashCh:
				res.Fired = true
			default:
			}
		}
		if err := c.KillNode(victim.ID()); err != nil {
			reaperDone <- err
			return
		}
		restarted, err := c.RestartNode(victim.ID())
		if err != nil {
			reaperDone <- err
			return
		}
		info := restarted.Store().Recovery()
		res.RecoveredKeys = restarted.Store().Len()
		res.WALReplayed = info.WALRecords + info.SnapshotKeys
		res.TornBytes = info.TornBytes
		reaperDone <- nil
	}()

	wg.Wait()
	<-armerDone
	if err := <-reaperDone; err != nil {
		return CrashResult{}, fmt.Errorf("kill/restart: %w", err)
	}
	res.AckedWrites = int(acked.Load())
	res.Retries = int(retries.Load())
	res.Incomplete = int(incomplete.Load())

	// Convergence: drain hints (redelivering what the victim missed while
	// dead), then one full anti-entropy sweep so every replica holds the
	// merged state before the dot-uniqueness scan.
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for _, n := range c.Nodes {
		if err := n.WaitHintsDrained(dctx); err != nil {
			break // PendingHints below records the failure
		}
	}
	for _, n := range c.Nodes {
		res.PendingHints += n.PendingHints()
	}
	for _, n := range c.Nodes {
		for _, p := range c.Nodes {
			if n.ID() != p.ID() {
				_ = n.AntiEntropyWith(dctx, p.ID())
			}
		}
	}

	// Oracle 1: every key's final read is exactly its last acked value.
	reader := c.NewClient("crash-verifier", cluster.RouteCoordinator)
	for i := 0; i < cfg.Clients; i++ {
		want := lastAcked[i]
		if want == "" {
			continue
		}
		key := fmt.Sprintf("crash-key-%02d", i)
		vals, err := reader.Get(ctx, key)
		if err != nil {
			return CrashResult{}, fmt.Errorf("final read %s: %w", key, err)
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

	// Oracle 2: dot uniqueness. Across every replica and sibling, one dot
	// must name one value — a recovered replica that re-minted an issued
	// dot would show here as the same (server, counter) over two values.
	type dotKey struct {
		key string
		d   dot.Dot
	}
	seen := map[dotKey]string{}
	dups := map[dotKey]bool{}
	for _, n := range c.Nodes {
		st := n.Store()
		for _, key := range st.Keys() {
			state, ok := st.Snapshot(key)
			if !ok {
				continue
			}
			for _, dv := range versionDots(state) {
				k := dotKey{key, dv.d}
				if prev, ok := seen[k]; ok {
					if prev != dv.val {
						dups[k] = true
					}
				} else {
					seen[k] = dv.val
				}
			}
		}
	}
	res.DuplicateDots = len(dups)
	return res, nil
}

// dotVal pairs a version's identifying dot with its value.
type dotVal struct {
	d   dot.Dot
	val string
}

// versionDots extracts (dot, value) pairs from a mechanism state; the dot
// oracle covers the two dotted mechanisms (DVV sibling sets and DVV sets).
func versionDots(state core.State) []dotVal {
	switch st := state.(type) {
	case core.DVVState:
		out := make([]dotVal, 0, len(st))
		for _, v := range st {
			out = append(out, dotVal{v.Clock.D, string(v.Value)})
		}
		return out
	case *dvvset.Set[[]byte]:
		var out []dotVal
		for _, e := range st.Entries() {
			for k, val := range e.Vals {
				// Vals[k] is the value written by dot (ID, N−k).
				out = append(out, dotVal{dot.Dot{Node: e.ID, Counter: e.N - uint64(k)}, string(val)})
			}
		}
		return out
	default:
		return nil
	}
}

// ---------------------------------------------------------------------------
// Durability overhead: the put-path cost of the WAL and of fsync.
// ---------------------------------------------------------------------------

// DurabilityConfig parameterises the put-path overhead measurement.
type DurabilityConfig struct {
	// Puts per writer; Writers concurrent goroutines in the concurrent
	// pass (group commit shares fsyncs across them).
	Puts    int
	Writers int
	Seed    int64
}

// DefaultDurabilityConfig keeps the fsync passes to a few hundred syncs so
// the table renders in seconds on laptop and CI disks alike.
func DefaultDurabilityConfig() DurabilityConfig {
	return DurabilityConfig{Puts: 384, Writers: 8, Seed: 5}
}

// RunDurabilityOverhead measures the storage put path under three
// durability modes — in-memory, WAL without fsync, WAL with fsync-per-
// commit — single-writer and with Writers concurrent goroutines. The
// fsyncs/put column quantifies group commit: concurrent writers share
// commit batches, so the fsync mode's per-put cost falls well below one
// fsync each.
func RunDurabilityOverhead(cfg DurabilityConfig) (*stats.Table, error) {
	if cfg.Puts == 0 {
		cfg = DefaultDurabilityConfig()
	}
	t := stats.NewTable("D1 — put-path durability overhead (WAL off/on, fsync off/on, group commit)",
		"mode", "writers", "puts", "ns/op", "fsyncs", "fsyncs/put")
	type mode struct {
		name    string
		durable bool
		fsync   bool
	}
	modes := []mode{
		{"memory", false, false},
		{"wal", true, false},
		{"wal+fsync", true, true},
	}
	mech := core.NewDVV()
	for _, md := range modes {
		for _, writers := range []int{1, cfg.Writers} {
			var s storage.Engine
			var dir string
			if md.durable {
				var err error
				dir, err = os.MkdirTemp("", "dvv-durability-*")
				if err != nil {
					return nil, err
				}
				s, err = storage.Open(mech, storage.Options{Dir: dir, Fsync: md.fsync})
				if err != nil {
					os.RemoveAll(dir)
					return nil, err
				}
			} else {
				s = storage.New(mech)
			}
			total := cfg.Puts * writers
			start := time.Now()
			var wg sync.WaitGroup
			// A failed put must fail the whole run: the table divides by
			// the planned put count, and silently short-counting would
			// publish numbers for work that never happened.
			putErrs := make(chan error, writers)
			for g := 0; g < writers; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < cfg.Puts; i++ {
						key := fmt.Sprintf("w%02d-key-%04d", g, i)
						if _, err := s.Put(key, mech.EmptyContext(), []byte("value-payload-0123456789"),
							core.WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", g))}); err != nil {
							putErrs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(putErrs)
			elapsed := time.Since(start)
			st := s.Stats()
			s.Close()
			if dir != "" {
				os.RemoveAll(dir)
			}
			if err := <-putErrs; err != nil {
				return nil, fmt.Errorf("sim: durability %s/%d writers: %w", md.name, writers, err)
			}
			perPut := float64(st.WALSyncs) / float64(total)
			t.AddRow(md.name, writers, total,
				fmt.Sprintf("%d", elapsed.Nanoseconds()/int64(total)),
				st.WALSyncs, fmt.Sprintf("%.3f", perPut))
		}
	}
	return t, nil
}
