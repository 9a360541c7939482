package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dot"
)

// newBenchClient starts an echo server and returns a dial-only client
// that knows its address.
func newBenchClient(b *testing.B) *Mux {
	b.Helper()
	server := NewMux("srv", map[dot.ID]string{"srv": "127.0.0.1:0"})
	if err := server.Listen(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { server.Close() })
	server.Register("srv", echoHandler(""))
	client := NewMux("cli", map[dot.ID]string{"srv": server.Addr()})
	b.Cleanup(func() { client.Close() })
	return client
}

// BenchmarkTransportSend measures the mux at 1, 8 and 64 concurrent
// in-flight requests over TCP loopback. At depth 1 each exchange pays one
// round trip; as depth grows the shared connection coalesces flushes, so
// per-request cost should fall.
func BenchmarkTransportSend(b *testing.B) {
	body := make([]byte, 128)
	for _, inflight := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("inflight-%d", inflight), func(b *testing.B) {
			client := newBenchClient(b)
			ctx := context.Background()
			// Warm the path (dial, pools, hello).
			if _, err := client.Send(ctx, "cli", "srv", Request{Method: "m", Body: body}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			var wg sync.WaitGroup
			var firstErr error
			var errOnce sync.Once
			per := b.N / inflight
			extra := b.N % inflight
			for g := 0; g < inflight; g++ {
				n := per
				if g < extra {
					n++
				}
				if n == 0 {
					continue
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := client.Send(ctx, "cli", "srv", Request{Method: "m", Body: body}); err != nil {
							errOnce.Do(func() { firstErr = err })
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			if firstErr != nil {
				b.Fatal(firstErr)
			}
		})
	}
}
