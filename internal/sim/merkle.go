package sim

// E5 — Merkle-tree anti-entropy: the experiment behind the ae.tree walk.
// Two replicas over real TCP loopback (the mux transport) hold a large,
// almost-identical keyspace — a small fraction of keys diverged — and
// one anti-entropy sweep runs to convergence: root compare, descend only
// differing subtrees, then pull and push the diverging keys.
//
// Measured: wall time to convergence, bytes and frames on the wire (both
// transports' Meter counters), sweeps needed, and the ae.tree round
// trips. The acceptance bar is structural, read off the run's own
// numbers: the sweep converges in exactly one pass, and its bytes on the
// wire stay ≤ 1/10 of the encoded size of a flat (key, hash) listing of
// the keyspace — the floor of any exchange that ships every key's hash.
// The listing is computed, never sent. Enforced in-run so the CI
// snapshot fails loudly if the walk regresses.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/antientropy"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/transport"
)

// MerkleConfig parameterises the E5 experiment.
type MerkleConfig struct {
	// Keys is the keyspace size seeded identically on both replicas.
	Keys int
	// DiffFrac is the fraction of keys rewritten on one replica before
	// the sweep (the divergence anti-entropy must find and repair).
	DiffFrac float64
	// ValueBytes is the payload size per key.
	ValueBytes int
	// Timeout bounds each sweep.
	Timeout time.Duration
	Seed    int64
	// Enforce applies the acceptance bar (one sweep, bytes ≤ 1/10 of the
	// flat listing). Leave false for reduced smoke-test sizes, where the
	// walk's fixed per-level costs rival a tiny keyspace's listing.
	Enforce bool
}

// DefaultMerkleConfig is the acceptance-bar configuration: 200k keys,
// 0.01% divergence.
func DefaultMerkleConfig() MerkleConfig {
	return MerkleConfig{
		Keys:       200_000,
		DiffFrac:   0.0001,
		ValueBytes: 16,
		Timeout:    time.Minute,
		Seed:       29,
		Enforce:    true,
	}
}

// MerkleResult is the measured sweep.
type MerkleResult struct {
	Keys     int
	Diverged int
	// Sweeps is how many AntiEntropyWith calls convergence took (1 on a
	// reliable network).
	Sweeps int
	// Elapsed is wall time from first sweep to verified convergence.
	Elapsed time.Duration
	// Bytes and Frames are the deltas across both transports' meters.
	Bytes, Frames uint64
	// FlatBytes is the encoded size of a flat (key, hash) listing of the
	// initiator's keyspace: a count, then each key string and its state
	// hash as a uvarint.
	FlatBytes uint64
	// TreeRounds and TreeNodes are the initiator's ae.tree counters.
	TreeRounds, TreeNodes uint64
}

// RunMerkleAE runs the sweep and renders the E5 table. The returned
// result carries the raw numbers for snapshotting.
func RunMerkleAE(cfg MerkleConfig) (MerkleResult, *stats.Table, error) {
	if cfg.Keys == 0 {
		cfg = DefaultMerkleConfig()
	}
	r, err := runMerkleSweep(cfg)
	if err != nil {
		return MerkleResult{}, nil, fmt.Errorf("sim: merkle: %w", err)
	}
	t := stats.NewTable("E5 — anti-entropy repair cost at 0.01% divergence: hash-tree walk vs a flat (key, hash) listing",
		"keys", "diverged", "sweeps", "time", "bytes", "frames",
		"tree rounds", "flat listing bytes", "flat / bytes")
	t.AddRow(r.Keys, r.Diverged, r.Sweeps,
		r.Elapsed.Round(time.Microsecond), r.Bytes, r.Frames,
		r.TreeRounds, r.FlatBytes, fmt.Sprintf("%.1fx", float64(r.FlatBytes)/float64(max(r.Bytes, 1))))
	if cfg.Enforce {
		if r.Sweeps != 1 {
			return MerkleResult{}, nil, fmt.Errorf("sim: merkle acceptance: %d sweeps to converge, want 1", r.Sweeps)
		}
		if r.Bytes*10 > r.FlatBytes {
			return MerkleResult{}, nil, fmt.Errorf("sim: merkle acceptance: tree bytes %d not 10x under the flat listing %d", r.Bytes, r.FlatBytes)
		}
	}
	return r, t, nil
}

// flatListingBytes is the encoded size of a flat (key, hash) listing of
// st's keyspace, in the codec's own encoding.
func flatListingBytes(st storage.Engine) uint64 {
	keys := st.Keys()
	w := codec.NewWriter(64)
	w.Uvarint(uint64(len(keys)))
	total := uint64(w.Len())
	for _, k := range keys {
		w.Reset()
		w.String(k)
		w.Uvarint(st.KeyHash(k))
		total += uint64(w.Len())
	}
	return total
}

func runMerkleSweep(cfg MerkleConfig) (MerkleResult, error) {
	ids := []dot.ID{"e5a", "e5b"}
	rg := ring.New(16)
	for _, id := range ids {
		rg.Add(id)
	}
	mech := core.NewDVV()

	// Real sockets: one mux transport + listener per replica, so the
	// Meter counters measure the actual wire.
	transports := make([]*transport.Mux, len(ids))
	for i, id := range ids {
		tr := transport.NewMux(id, map[dot.ID]string{id: "127.0.0.1:0"})
		if err := tr.Listen(); err != nil {
			return MerkleResult{}, err
		}
		defer tr.Close()
		transports[i] = tr
	}
	for i := range transports {
		for j, id := range ids {
			if i != j {
				transports[i].SetAddr(id, transports[j].Addr())
			}
		}
	}
	nodes := make([]*node.Node, len(ids))
	for i, id := range ids {
		nd, err := node.New(node.Config{
			ID: id, Mech: mech, Transport: transports[i], Ring: rg,
			N: 2, R: 1, W: 1,
			Timeout: cfg.Timeout,
			Seed:    cfg.Seed + int64(i),
			Addr:    transports[i].Addr(),
		})
		if err != nil {
			return MerkleResult{}, err
		}
		defer nd.Close()
		nodes[i] = nd
	}
	a, b := nodes[0], nodes[1]

	// Seed both replicas identically through local store operations, so
	// nothing crosses the wire before the sweep being measured.
	value := make([]byte, cfg.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for i := 0; i < cfg.Keys; i++ {
		key := fmt.Sprintf("e5-%06d", i)
		if _, err := a.Store().Put(key, mech.EmptyContext(), value,
			core.WriteInfo{Server: a.ID(), Client: "seed"}); err != nil {
			return MerkleResult{}, err
		}
		st, _ := a.Store().Snapshot(key)
		if err := b.Store().SyncKey(key, st); err != nil {
			return MerkleResult{}, err
		}
	}
	// Diverge DiffFrac of the keyspace on a: supersede with a new write.
	diverged := int(float64(cfg.Keys) * cfg.DiffFrac)
	for i := 0; i < diverged; i++ {
		key := fmt.Sprintf("e5-%06d", i*(cfg.Keys/max(diverged, 1)))
		rr, _ := a.Store().Get(key)
		if _, err := a.Store().Put(key, rr.Ctx, []byte("diverged"),
			core.WriteInfo{Server: a.ID(), Client: "div"}); err != nil {
			return MerkleResult{}, err
		}
	}

	rootLevel := antientropy.TreeRootLevel()
	converged := func() bool {
		return a.Store().TreeDigest(rootLevel, 0) == b.Store().TreeDigest(rootLevel, 0)
	}
	if converged() {
		return MerkleResult{}, fmt.Errorf("replicas identical before the sweep (diverged=%d)", diverged)
	}

	flat := flatListingBytes(a.Store())
	bytes0 := transports[0].BytesSent() + transports[1].BytesSent()
	frames0 := transports[0].MessagesSent() + transports[1].MessagesSent()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	start := time.Now()
	sweeps := 0
	for !converged() {
		if sweeps >= 5 {
			return MerkleResult{}, fmt.Errorf("not converged after %d sweeps", sweeps)
		}
		if err := a.AntiEntropyWith(ctx, b.ID()); err != nil {
			return MerkleResult{}, err
		}
		sweeps++
	}
	elapsed := time.Since(start)
	st := a.Stats()
	return MerkleResult{
		Keys:       cfg.Keys,
		Diverged:   diverged,
		Sweeps:     sweeps,
		Elapsed:    elapsed,
		Bytes:      transports[0].BytesSent() + transports[1].BytesSent() - bytes0,
		Frames:     transports[0].MessagesSent() + transports[1].MessagesSent() - frames0,
		FlatBytes:  flat,
		TreeRounds: st.AETreeRounds,
		TreeNodes:  st.AETreeNodes,
	}, nil
}
