package node

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/ring"
	"repro/internal/transport"
)

// TestReplBatchCoalesces proves the tentpole property: concurrent pushes
// to the same peer ride shared repl.batch frames instead of one RPC per
// key. Network latency keeps the first frame in flight long enough for
// the rest of the burst to queue behind it.
func TestReplBatchCoalesces(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLoopback(), 1)
	t.Cleanup(func() { chaos.Close() })
	chaos.SetDefault(transport.LinkFaults{Delay: 5 * time.Millisecond})
	nodes, _, _ := clusterOnTransport(t, chaos, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 2
	})
	a, b := nodes[0], nodes[1]

	const puts = 24
	var wg sync.WaitGroup
	for i := 0; i < puts; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := "batch-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
			_, err := a.CoordinatePut(context.Background(), key, []byte("v"), "cli", WriteOptions{})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := a.Stats()
	if st.BatchedKeys == 0 {
		t.Fatal("no keys went through the batched path")
	}
	if st.ReplBatches >= st.BatchedKeys {
		t.Fatalf("no coalescing: %d frames for %d keys", st.ReplBatches, st.BatchedKeys)
	}
	// Every state must actually have landed on the peer.
	if got := b.Store().Len(); got < puts {
		t.Fatalf("peer holds %d keys, want >= %d", got, puts)
	}
}

// clusterOnTransport is testCluster with a caller-supplied transport.
func clusterOnTransport(t *testing.T, tr transport.Transport, n int, cfg func(*Config)) ([]*Node, transport.Transport, *ring.Ring) {
	t.Helper()
	r := ring.New(16)
	for i := 0; i < n; i++ {
		r.Add(testNodeID(i))
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		c := Config{
			ID: testNodeID(i), Mech: core.NewDVV(), Transport: tr, Ring: r,
			N: 3, R: 2, W: 2, Timeout: 2 * time.Second, Seed: int64(i),
		}
		if cfg != nil {
			cfg(&c)
		}
		nd, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		nodes[i] = nd
	}
	return nodes, tr, r
}

// TestHandleReplBatch exercises the handler directly: a well-formed
// frame applies every state; garbage must error without panicking.
func TestHandleReplBatch(t *testing.T) {
	nodes, _, _ := testCluster(t, 1, func(c *Config) { c.N, c.R, c.W = 1, 1, 1 })
	n := nodes[0]
	m := n.cfg.Mech

	donor, _, _ := testCluster(t, 1, func(c *Config) { c.N, c.R, c.W = 1, 1, 1 })
	d := donor[0]
	keys := []string{"rb-a", "rb-b", "rb-c"}
	w := codec.NewWriter(256)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		if _, err := d.Store().Put(k, m.EmptyContext(), []byte("v-"+k), core.WriteInfo{Server: d.ID(), Client: "c"}); err != nil {
			t.Fatal(err)
		}
		st, _ := d.Store().Snapshot(k)
		w.String(k)
		m.EncodeState(w, st)
	}
	resp := n.Handle(context.Background(), d.ID(), transport.Request{Method: MethodReplBatch, Body: w.Bytes()})
	if resp.Err != "" {
		t.Fatalf("repl.batch: %s", resp.Err)
	}
	for _, k := range keys {
		if _, ok := n.Store().Snapshot(k); !ok {
			t.Fatalf("key %s not applied", k)
		}
	}
	if st := n.Stats(); st.ReplPuts != uint64(len(keys)) {
		t.Fatalf("ReplPuts = %d, want %d", st.ReplPuts, len(keys))
	}
	bad := n.Handle(context.Background(), "x", transport.Request{Method: MethodReplBatch, Body: []byte{0xFF, 0x01, 0x02}})
	if bad.Err == "" {
		t.Fatal("garbage repl.batch accepted")
	}
}

// failingTransport wraps a Transport and fails replica-push methods to
// one destination, for exercising partial-failure sweeps.
type failingTransport struct {
	transport.Transport
	mu     sync.Mutex
	fail   dot.ID
	failed int
}

func (f *failingTransport) Send(ctx context.Context, from, to dot.ID, req transport.Request) (transport.Response, error) {
	if to == f.fail && (req.Method == MethodReplBatch) {
		f.mu.Lock()
		f.failed++
		f.mu.Unlock()
		return transport.Response{}, transport.ErrUnreachable
	}
	return f.Transport.Send(ctx, from, to, req)
}

// TestAntiEntropyContinuesPastFailedRepair is the regression test for the
// first-failure-aborts-the-sweep bug: when every push to the peer fails,
// the sweep must still complete (counting the failures) instead of
// returning on the first one — and crucially the *pull* side of the
// exchange must still have reconciled what it could.
func TestAntiEntropyContinuesPastFailedRepair(t *testing.T) {
	lb := transport.NewLoopback()
	t.Cleanup(func() { lb.Close() })
	ft := &failingTransport{Transport: lb, fail: testNodeID(1)}
	nodes, _, _ := clusterOnTransport(t, ft, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
	})
	a, b := nodes[0], nodes[1]
	m := a.cfg.Mech

	keys := []string{"ae-1", "ae-2", "ae-3", "ae-4", "ae-5"}
	for _, k := range keys {
		if _, err := a.Store().Put(k, m.EmptyContext(), []byte("v"), core.WriteInfo{Server: a.ID(), Client: "c"}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// a reconciles with b: the ae.tree walk succeeds (b's leaf buckets
	// lack the keys), but every push back to b fails.
	if err := a.AntiEntropyWith(ctx, b.ID()); err != nil {
		t.Fatalf("sweep aborted: %v", err)
	}
	st := a.Stats()
	if st.AERepairFailures != uint64(len(keys)) {
		t.Fatalf("AERepairFailures = %d, want %d (one per failed key, sweep not aborted)", st.AERepairFailures, len(keys))
	}
	ft.mu.Lock()
	attempted := ft.failed
	ft.mu.Unlock()
	if attempted == 0 {
		t.Fatal("no pushes attempted")
	}
}

func testNodeID(i int) dot.ID {
	return dot.ID("n0" + string(rune('0'+i)))
}

// TestBatcherShutdownDrains: pushes racing Close must resolve with
// errors, not hang.
func TestBatcherShutdownDrains(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
	})
	a, b := nodes[0], nodes[1]
	m := a.cfg.Mech
	if _, err := a.Store().Put("sd", m.EmptyContext(), []byte("v"), core.WriteInfo{Server: a.ID(), Client: "c"}); err != nil {
		t.Fatal(err)
	}
	st, _ := a.Store().Snapshot("sd")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := a.batcher.push(ctx, b.ID(), "sd", st)
	if err == nil {
		t.Fatal("push after Close succeeded")
	}
	if !strings.Contains(err.Error(), "shutting down") && ctx.Err() == nil {
		t.Logf("post-close push error: %v", err)
	}
}
