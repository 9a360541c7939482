package storage

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dot"
)

// BenchmarkWALAppend measures the raw log append path, with and without
// fsync-per-commit, sequential and with parallel appenders (the parallel
// fsync case is where group commit amortizes).
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 128)
	for _, mode := range []struct {
		name string
		sync bool
	}{{"nosync", false}, {"sync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			w, err := OpenWAL(filepath.Join(b.TempDir(), "bench.log"), mode.sync)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload) + walHeaderSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(mode.name+"-parallel8", func(b *testing.B) {
			w, err := OpenWAL(filepath.Join(b.TempDir(), "bench.log"), mode.sync)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload) + walHeaderSize))
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := w.Append(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			appends, _, syncs := w.Stats()
			if mode.sync && appends > 0 {
				b.ReportMetric(float64(syncs)/float64(appends), "fsyncs/op")
			}
		})
	}
}

// BenchmarkWALReplay measures recovery speed: records replayed per second
// from a prebuilt log.
func BenchmarkWALReplay(b *testing.B) {
	const records = 2048
	path := filepath.Join(b.TempDir(), "replay.log")
	w, err := OpenWAL(path, false)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 128)
	for i := 0; i < records; i++ {
		if err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(records * (128 + walHeaderSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _, err := ReplayWAL(path, func([]byte) error { return nil })
		if err != nil || n != records {
			b.Fatalf("replayed %d, err %v", n, err)
		}
	}
}

// BenchmarkStorePut measures the full storage put path under the three
// durability modes — the end-to-end cost a coordinator pays per local
// write. The durable modes write ahead under the shard lock; the parallel
// variants show group commit recovering fsync throughput.
func BenchmarkStorePut(b *testing.B) {
	mech := core.NewDVV()
	for _, mode := range []struct {
		name    string
		durable bool
		sync    bool
	}{{"memory", false, false}, {"wal", true, false}, {"wal-fsync", true, true}} {
		mk := func(b *testing.B) Engine {
			if !mode.durable {
				return New(mech)
			}
			s, err := Open(mech, Options{Dir: b.TempDir(), Fsync: mode.sync})
			if err != nil {
				b.Fatal(err)
			}
			return s
		}
		b.Run(mode.name, func(b *testing.B) {
			s := mk(b)
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("key-%04d", i%512)
				if _, err := s.Put(key, mech.EmptyContext(), []byte("value-payload"),
					core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(mode.name+"-parallel8", func(b *testing.B) {
			s := mk(b)
			defer s.Close()
			var ctr atomic.Uint64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := ctr.Add(1)
				i := 0
				for pb.Next() {
					key := fmt.Sprintf("g%d-key-%04d", g, i%512)
					i++
					if _, err := s.Put(key, mech.EmptyContext(), []byte("value-payload"),
						core.WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", g))}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
