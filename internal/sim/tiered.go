// D4 — tiered storage under a fixed memory budget: the same workload on
// the durable engine under its two residency policies — "memory" (no byte
// budget: nothing is evicted) and "tiered" (a hot cache 10-100x smaller
// than the dataset) — comparing put/get latency and
// reporting the cache's hit rate, spill/fault traffic and segment count.
// The paper's point makes this split natural: causal metadata is O(replicas)
// per key and stays resident (the tiered index), while the value plane —
// the part that outgrows RAM at "millions of users" scale — spills.
package sim

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/stats"
	"repro/internal/storage"
)

// TieredConfig parameterises the D4 memory-budget experiment.
type TieredConfig struct {
	// Keys in the dataset; ValueBytes per value. Sized so the encoded
	// dataset is well over 10x MemBudget.
	Keys       int
	ValueBytes int
	// Gets in the read phase, drawn 80/20: 80% from the hottest 5% of
	// keys (sized to fit the cache budget), the rest uniform — the skew
	// that gives a bounded cache its hit rate.
	Gets int
	// MemBudget bounds the tiered engine's hot cache in bytes.
	MemBudget int64
	Seed      int64
}

// DefaultTieredConfig keeps the dataset around 30x the cache budget and
// the run under a few seconds on CI disks (fsync off; D1 owns fsync cost).
func DefaultTieredConfig() TieredConfig {
	return TieredConfig{
		Keys:       20000,
		ValueBytes: 128,
		Gets:       40000,
		MemBudget:  256 << 10, // 256 KiB; the ~150 KiB hot set fits, the ~3 MiB dataset does not
		Seed:       7,
	}
}

// dirBytes sums the file sizes under dir — the on-disk footprint of an
// engine's data directory.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// RunTieredStorage runs the D4 comparison. Both policies run durable with
// fsync off so the measured difference is the cache machinery (WAL append,
// spill, fault), not the disk's sync latency. The run fails if the tiered
// engine's resident cache ever reports more than its budget after the
// workload, or if either engine loses keys — those are the acceptance
// bounds, not just table rows.
func RunTieredStorage(cfg TieredConfig) (*stats.Table, error) {
	if cfg.Keys == 0 {
		cfg = DefaultTieredConfig()
	}
	t := stats.NewTable("D4 — tiered engine: bounded budget vs no budget (fsync off)",
		"engine", "keys", "disk KiB", "cache KiB", "data/budget", "put ns", "get ns",
		"hit %", "spills", "faults", "segments")
	mech := core.NewDVV()
	value := make([]byte, cfg.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	hot := cfg.Keys / 20
	if hot < 1 {
		hot = 1
	}
	for _, engine := range []string{storage.EngineMemory, storage.EngineTiered} {
		dir, err := os.MkdirTemp("", "dvv-tiered-*")
		if err != nil {
			return nil, err
		}
		s, err := storage.Open(mech, storage.Options{
			Engine: engine, Dir: dir, Fsync: false, MemBudget: cfg.MemBudget,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		runErr := func() error {
			rng := rand.New(rand.NewSource(cfg.Seed))
			loadStart := time.Now()
			for i := 0; i < cfg.Keys; i++ {
				key := fmt.Sprintf("key-%06d", i)
				if _, err := s.Put(key, mech.EmptyContext(), value,
					core.WriteInfo{Server: "S1", Client: dot.ID("c1")}); err != nil {
					return err
				}
			}
			putNS := time.Since(loadStart).Nanoseconds() / int64(cfg.Keys)
			// Checkpoint between phases: it spills the dirty states and
			// truncates the WAL, so the read phase is log-free.
			if err := s.Checkpoint(); err != nil {
				return err
			}
			readStart := time.Now()
			for i := 0; i < cfg.Gets; i++ {
				var k int
				if rng.Intn(10) < 8 {
					k = rng.Intn(hot)
				} else {
					k = rng.Intn(cfg.Keys)
				}
				if _, ok := s.Get(fmt.Sprintf("key-%06d", k)); !ok {
					return fmt.Errorf("key-%06d vanished", k)
				}
			}
			getNS := time.Since(readStart).Nanoseconds() / int64(cfg.Gets)
			st := s.Stats()
			if st.Keys != cfg.Keys {
				return fmt.Errorf("%s engine holds %d keys, want %d", engine, st.Keys, cfg.Keys)
			}
			if engine == storage.EngineTiered {
				if st.CacheBytes > cfg.MemBudget {
					return fmt.Errorf("tiered cache %d bytes exceeds budget %d", st.CacheBytes, cfg.MemBudget)
				}
				if onDisk := dirBytes(dir); onDisk < 10*cfg.MemBudget {
					return fmt.Errorf("dataset %d bytes is under 10x the %d budget — experiment not stressing the tier", onDisk, cfg.MemBudget)
				}
			}
			hitPct := 0.0
			if st.CacheHits+st.CacheMisses > 0 {
				hitPct = 100 * float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
			}
			t.AddRow(engine, st.Keys,
				dirBytes(dir)>>10, st.CacheBytes>>10,
				fmt.Sprintf("%.1fx", float64(dirBytes(dir))/float64(cfg.MemBudget)),
				putNS, getNS,
				fmt.Sprintf("%.1f", hitPct),
				st.Spills, st.Faults, st.Segments)
			return nil
		}()
		s.Close()
		os.RemoveAll(dir)
		if runErr != nil {
			return nil, fmt.Errorf("sim: tiered %s: %w", engine, runErr)
		}
	}
	return t, nil
}
