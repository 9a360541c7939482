package node

// BenchmarkAETick measures one anti-entropy tick (the ae.tree walk plus
// reconciliation) across keyspace sizes and divergence fractions. The
// pair is seeded once per keyspace size; each iteration re-diverges the
// same key subset with fresh values, so the tick always has real work
// proportional to the divergence fraction — and at zero divergence it
// measures the steady-state cost of a converged tick, which should be one
// root compare whatever the keyspace size.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/ring"
	"repro/internal/transport"
)

type benchPair struct {
	a, b *Node
	gen  int
}

func newBenchPair(b *testing.B, keys int) *benchPair {
	b.Helper()
	lb := transport.NewLoopback()
	b.Cleanup(func() { lb.Close() })
	r := ring.New(16)
	ids := []dot.ID{"ba", "bb"}
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		r.Add(id)
		nd, err := New(Config{
			ID: id, Mech: core.NewDVV(), Transport: lb, Ring: r,
			N: 2, R: 1, W: 1, Timeout: time.Minute, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { nd.Close() })
		nodes[i] = nd
	}
	p := &benchPair{a: nodes[0], b: nodes[1]}
	m := p.a.cfg.Mech
	for i := 0; i < keys; i++ {
		key := benchKey(i)
		if _, err := p.a.Store().Put(key, m.EmptyContext(), []byte("v0"),
			core.WriteInfo{Server: p.a.ID(), Client: "c"}); err != nil {
			b.Fatal(err)
		}
		st, _ := p.a.Store().Snapshot(key)
		if err := p.b.Store().SyncKey(key, st); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

func benchKey(i int) string { return fmt.Sprintf("bench-%06d", i) }

// diverge rewrites the first n keys on a with fresh values, so a and b
// disagree on exactly those keys until the next tick converges them.
func (p *benchPair) diverge(b *testing.B, n int) {
	b.Helper()
	p.gen++
	for i := 0; i < n; i++ {
		key := benchKey(i)
		rr, _ := p.a.Store().Get(key)
		if _, err := p.a.Store().Put(key, rr.Ctx, []byte(fmt.Sprintf("g%d", p.gen)),
			core.WriteInfo{Server: p.a.ID(), Client: "c"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAETick(b *testing.B) {
	for _, keys := range []int{10_000, 100_000} {
		// One seeded pair serves every divergence at this size: each tick
		// leaves the pair converged, so runs are independent.
		pair := newBenchPair(b, keys)
		for _, div := range []float64{0, 0.0001, 0.01} {
			b.Run(fmt.Sprintf("keys=%d/div=%g", keys, div), func(b *testing.B) {
				diff := int(float64(keys) * div)
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if diff > 0 {
						b.StopTimer()
						pair.diverge(b, diff)
						b.StartTimer()
					}
					if err := pair.a.AntiEntropyWith(ctx, pair.b.ID()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
