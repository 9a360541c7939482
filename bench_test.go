// Benchmarks regenerating the paper's quantitative claims; each family
// maps to a row of the experiment index in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// C1  BenchmarkCompare*            — O(1) DVV check vs O(n) VV compare
// C2  BenchmarkMetadataGrowth*     — per-version metadata vs writer count
// C3  BenchmarkCluster*            — request path cost per mechanism
// C4  BenchmarkPruningCompare      — anomaly accounting cost (oracle diff)
// A1  BenchmarkDVVSet*             — compact set vs per-version clocks
// S1  BenchmarkStoreParallel*      — sharded store vs single-mutex baseline
package dvv_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	dvv "repro"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/storage"
	"repro/internal/svv"
	"repro/internal/vv"
)

var (
	sinkBool  bool
	sinkInt   int
	sinkBytes []byte
)

// wideVectors builds a dominated/dominating VV pair with n entries and the
// corresponding DVV clocks.
func wideVectors(n int) (a, b dvv.Clock, va, vb dvv.VV) {
	va, vb = dvv.NewContext(), dvv.NewContext()
	for i := 0; i < n; i++ {
		id := dvv.ID(fmt.Sprintf("s%05d", i))
		va.Set(id, 3)
		vb.Set(id, 4)
	}
	a = dvv.NewClock(dvv.NewDot("s00000", 4), va.Clone())
	b = dvv.NewClock(dvv.NewDot("s00001", 5), vb.Clone())
	return
}

// C1 — the headline O(1) vs O(n) comparison.
func BenchmarkCompareDVVDotCheck(b *testing.B) {
	for _, n := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("entries-%d", n), func(b *testing.B) {
			ca, cb, _, _ := wideVectors(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBool = ca.Before(cb)
			}
		})
	}
}

func BenchmarkCompareVVDescends(b *testing.B) {
	for _, n := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("entries-%d", n), func(b *testing.B) {
			_, _, va, vb := wideVectors(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBool = vb.Descends(va)
			}
		})
	}
}

func BenchmarkCompareSVVSummary(b *testing.B) {
	for _, n := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("entries-%d", n), func(b *testing.B) {
			_, _, va, vb := wideVectors(n)
			sa, sb := svv.FromVV(va), svv.FromVV(vb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBool = sa.Descends(sb) // summary fast-reject path
			}
		})
	}
}

// Kernel operation costs.
func BenchmarkKernelPut(b *testing.B) {
	var s []dvv.Clock
	_, s = dvv.Put(s, dvv.NewContext(), "A")
	ctx := dvv.Context(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out := dvv.Put(s, ctx, "A")
		sinkInt = len(out)
	}
}

// syncSides builds two replica states of one key with k siblings each and
// pasts w entries wide. s1 holds k concurrent writes coordinated by s0; s2
// shares s1's newer half and holds writes coordinated by s1 from a client
// that read s1's older half, so a Sync collapses duplicates and drops
// dominated versions, as replicas that mostly agree do.
func syncSides(k, w int) (s1, s2 []dvv.Clock) {
	servers := make([]dvv.ID, w)
	var base []dvv.Clock
	for i := range servers {
		servers[i] = dvv.ID(fmt.Sprintf("s%d", i))
		_, base = dvv.Put(base, dvv.Context(base), servers[i])
	}
	s1 = base
	for i := 0; i < k; i++ {
		_, s1 = dvv.Put(s1, dvv.Context(base), servers[0])
	}
	sorted := dvv.Sync(s1, nil)
	older, newer := sorted[:k/2], sorted[k/2:]
	s2 = dvv.Sync(nil, newer)
	for i := 0; i < k/2; i++ {
		_, s2 = dvv.Put(s2, dvv.Context(older), servers[1])
	}
	return s1, s2
}

// BenchmarkKernelSync sweeps k siblings per side × vector width w; the
// converged arm merges two equal states, a replica that is up to date.
func BenchmarkKernelSync(b *testing.B) {
	bench := func(name string, s1, s2 []dvv.Clock) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkInt = len(dvv.Sync(s1, s2))
			}
		})
	}
	for _, k := range []int{1, 4, 16, 32} {
		for _, w := range []int{3, 16, 64} {
			s1, s2 := syncSides(k, w)
			bench(fmt.Sprintf("siblings-%d/width-%d", k, w), s1, s2)
		}
	}
	for _, k := range []int{1, 4, 16, 32} {
		s1, _ := syncSides(k, 3)
		bench(fmt.Sprintf("converged/siblings-%d/width-3", k), s1, dvv.Sync(s1, nil))
	}
}

// C2 — per-version metadata bytes as the writer count grows. The benches
// report bytes/version as a custom metric so `-bench Metadata` prints the
// paper's series.
func BenchmarkMetadataGrowth(b *testing.B) {
	for _, mechName := range []string{"dvv", "clientvv"} {
		for _, clients := range []int{4, 32, 256} {
			b.Run(fmt.Sprintf("%s/clients-%d", mechName, clients), func(b *testing.B) {
				m := dvv.Mechanisms()[mechName]
				cfg := oracle.TraceConfig{
					Ops: clients * 8, Replicas: 3, Clients: clients,
					PSync: 0.15, PStale: 0.4,
				}
				trace := oracle.RandomTrace(rand.New(rand.NewSource(42)), cfg)
				b.ResetTimer()
				var maxVersionBytes int
				for i := 0; i < b.N; i++ {
					run := oracle.NewRun(m, 3)
					if err := run.Replay(trace); err != nil {
						b.Fatal(err)
					}
					maxVersionBytes = run.MaxVersionBytes
				}
				b.ReportMetric(float64(maxVersionBytes), "bytes/version")
			})
		}
	}
}

// C3 — request path cost over the in-memory cluster (no injected
// latency: measures protocol + clock overhead only).
func BenchmarkClusterPut(b *testing.B) {
	for _, mechName := range []string{"dvv", "dvvset", "clientvv"} {
		b.Run(mechName, func(b *testing.B) {
			c, err := dvv.NewCluster(dvv.ClusterConfig{
				Mech: dvv.Mechanisms()[mechName], Nodes: 5, N: 3, R: 2, W: 2, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			cl := c.NewClient("bench", dvv.RouteCoordinator)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Put(ctx, fmt.Sprintf("key-%d", i%64), []byte("value")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClusterGet(b *testing.B) {
	for _, mechName := range []string{"dvv", "dvvset", "clientvv"} {
		b.Run(mechName, func(b *testing.B) {
			c, err := dvv.NewCluster(dvv.ClusterConfig{
				Mech: dvv.Mechanisms()[mechName], Nodes: 5, N: 3, R: 2, W: 2, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			cl := c.NewClient("bench", dvv.RouteCoordinator)
			ctx := context.Background()
			for i := 0; i < 64; i++ {
				if err := cl.Put(ctx, fmt.Sprintf("key-%d", i), []byte("value")); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Get(ctx, fmt.Sprintf("key-%d", i%64)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// C4 — cost of the anomaly instrument itself (oracle lockstep compare).
func BenchmarkPruningCompare(b *testing.B) {
	cfg := oracle.TraceConfig{Ops: 200, Replicas: 3, Clients: 16, PSync: 0.15, PStale: 0.5}
	trace := oracle.RandomTrace(rand.New(rand.NewSource(7)), cfg)
	m := core.NewPrunedClientVV(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.Compare(m, trace, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// A1 — compact set vs per-version clocks on the storm shape.
func BenchmarkDVVSetUpdate(b *testing.B) {
	s := dvv.NewSet[[]byte]()
	s.Update(vv.New(), []byte("base"), "A")
	ctx := s.Join()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		c.Update(ctx, []byte("sibling"), "A")
		sinkInt = c.Len()
	}
}

func BenchmarkDVVSetSync(b *testing.B) {
	a := dvv.NewSet[[]byte]()
	a.Update(vv.New(), []byte("base"), "A")
	ctx := a.Join()
	for i := 0; i < 8; i++ {
		a.Update(ctx, []byte("sib"), "A")
	}
	peer := a.Clone()
	peer.Update(peer.Join(), []byte("w"), "B")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := a.Clone()
		c.Sync(peer)
		sinkInt = c.Len()
	}
}

// S1 — storage engine contention. The same Get/Put workload runs against
// the 64-shard in-memory engine and the one-shard (single-mutex) baseline
// at several goroutine counts; the sharded engine must not lose throughput
// as goroutines are added. Every access, reads included, takes its
// shard's exclusive lock, so the spread only shows on a multi-core
// machine. GOMAXPROCS is pinned per sub-benchmark so
// "goroutines-N" means exactly N concurrent workers under b.RunParallel.
func benchStoreParallel(b *testing.B, putEvery int) {
	for _, shards := range []int{1, 64} {
		for _, goroutines := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("shards-%d/goroutines-%d", shards, goroutines), func(b *testing.B) {
				m := core.NewDVV()
				s := storage.NewSharded(m, shards)
				const keyspace = 512
				keys := make([]string, keyspace)
				for i := range keys {
					keys[i] = fmt.Sprintf("key-%04d", i)
					if _, err := s.Put(keys[i], m.EmptyContext(), []byte("seed"),
						core.WriteInfo{Server: "S1", Client: "seeder"}); err != nil {
						b.Fatal(err)
					}
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(goroutines))
				var gid atomic.Uint64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					g := gid.Add(1)
					wi := core.WriteInfo{Server: "S1", Client: dvv.ID(fmt.Sprintf("c%d", g))}
					h := g * 0x9E3779B97F4A7C15 // per-goroutine key walk
					for n := uint64(0); pb.Next(); n++ {
						h += 0x9E3779B97F4A7C15
						key := keys[(h>>32)%keyspace]
						if putEvery > 0 && n%uint64(putEvery) == 0 {
							rr, _ := s.Get(key)
							if _, err := s.Put(key, rr.Ctx, []byte("value"), wi); err != nil {
								b.Error(err)
								return
							}
						} else if _, ok := s.Get(key); !ok {
							b.Error("seeded key missing")
							return
						}
					}
				})
			})
		}
	}
}

func BenchmarkStoreParallelGet(b *testing.B) { benchStoreParallel(b, 0) }

func BenchmarkStoreParallelMixed(b *testing.B) { benchStoreParallel(b, 4) } // 1 read-modify-write per 4 ops

// Codec costs (the measurement instrument).
func BenchmarkCodecEncodeClock(b *testing.B) {
	c, _, _, _ := wideVectors(16)
	w := codec.NewWriter(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		codec.EncodeClock(w, c)
		sinkBytes = w.Bytes()
	}
}

func BenchmarkCodecDecodeClock(b *testing.B) {
	c, _, _, _ := wideVectors(16)
	w := codec.NewWriter(512)
	codec.EncodeClock(w, c)
	raw := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := codec.NewReader(raw)
		cc := codec.DecodeClock(r)
		sinkInt = cc.Size()
	}
}
