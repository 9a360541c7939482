package node

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/ring"
	"repro/internal/transport"
)

// TestSuspicionClearedOnLeave is the regression test for the lifecycle
// leak: suspicion entries were only pruned on the Suspected read path, so
// a peer that departed while suspected stayed in the map forever.
func TestSuspicionClearedOnLeave(t *testing.T) {
	nodes, chaos, r := testCluster(t, 3, func(c *Config) {
		c.W = 1
		c.SuspicionWindow = time.Hour // never expires within the test
	})
	key := "suspect-leak-key"
	co := ownerOf(t, nodes, r, key)
	var peer *Node
	for _, n := range nodes {
		if n != co {
			peer = n
			break
		}
	}
	chaos.Partition(co.ID(), peer.ID())
	if _, err := co.CoordinatePut(context.Background(), key, []byte("v"), "c1", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		co.mu.Lock()
		_, present := co.suspect[peer.ID()]
		co.mu.Unlock()
		if present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failed send never recorded suspicion")
		}
		time.Sleep(2 * time.Millisecond)
	}
	chaos.HealAll()

	// The suspected peer leaves; the member.leave announcement must clear
	// the suspicion entry without anyone calling Suspected.
	resp := co.Handle(context.Background(), peer.ID(), transport.Request{
		Method: MethodLeave, Body: encodeLeave(peer.ID()),
	})
	if resp.Err != "" {
		t.Fatalf("leave: %s", resp.Err)
	}
	co.mu.Lock()
	_, present := co.suspect[peer.ID()]
	co.mu.Unlock()
	if present {
		t.Fatal("suspicion entry leaked after member.leave")
	}
}

func encodeLeave(id dot.ID) []byte {
	w := getWriter()
	defer putWriter(w)
	w.String(string(id))
	return append([]byte(nil), w.Bytes()...)
}

// TestRejoinClearsSuspicion: a direct (non-forwarded) join announcement
// means the node is alive; stale suspicion must go.
func TestRejoinClearsSuspicion(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, func(c *Config) {
		c.SuspicionWindow = time.Hour
	})
	a, b := nodes[0], nodes[1]
	a.noteSendFailure(b.ID())
	if !a.Suspected(b.ID()) {
		t.Fatal("setup: b not suspected")
	}
	w := getWriter()
	w.String(string(b.ID()))
	w.String("")
	w.Bool(false) // direct announcement
	resp := a.Handle(context.Background(), b.ID(), transport.Request{Method: MethodJoin, Body: append([]byte(nil), w.Bytes()...)})
	putWriter(w)
	if resp.Err != "" {
		t.Fatalf("join: %s", resp.Err)
	}
	if a.Suspected(b.ID()) {
		t.Fatal("direct re-join did not clear suspicion")
	}
}

// TestRepairFanOutBounded: with every repair slot taken, further repairs
// must be shed and counted instead of stacking goroutines — the regression
// test for the unbounded repairAsync fan-out.
func TestRepairFanOutBounded(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, func(c *Config) { c.R, c.W = 1, 1 })
	a, b := nodes[0], nodes[1]
	m := a.cfg.Mech
	if _, err := a.store.Put("bounded-key", m.EmptyContext(), []byte("v"),
		core.WriteInfo{Server: a.ID(), Client: "c1"}); err != nil {
		t.Fatal(err)
	}
	st, _ := a.store.Snapshot("bounded-key")

	if got := cap(a.repairSem); got != repairConcurrency {
		t.Fatalf("repair pool cap = %d, want %d", got, repairConcurrency)
	}
	for i := 0; i < repairConcurrency; i++ {
		a.repairSem <- struct{}{}
	}
	before := a.Stats().RepairsDropped
	for i := 0; i < 10; i++ {
		a.repairAsync("bounded-key", st, []dot.ID{b.ID()})
	}
	if after := a.Stats().RepairsDropped; after-before != 10 {
		t.Fatalf("want 10 of 10 repairs dropped with the pool full, drops went %d -> %d", before, after)
	}
	for i := 0; i < repairConcurrency; i++ {
		<-a.repairSem
	}
}

// TestNodeRestartRecoversDurableState: a node with a DataDir is closed and
// recreated with the same id and directory; its store must come back with
// the pre-restart state and keep minting fresh dots.
func TestNodeRestartRecoversDurableState(t *testing.T) {
	lb := transport.NewLoopback()
	t.Cleanup(func() { lb.Close() })
	r := ring.New(16)
	r.Add("n00")
	dir := filepath.Join(t.TempDir(), "n00")
	mk := func() *Node {
		nd, err := New(Config{
			ID: "n00", Mech: core.NewDVV(), Transport: lb, Ring: r,
			N: 1, R: 1, W: 1, Timeout: time.Second,
			DataDir: dir, Fsync: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}
	n := mk()
	ctx := context.Background()
	rr, err := n.CoordinatePut(ctx, "k", []byte("v1"), "c1", WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.CoordinatePut(ctx, "k", []byte("v2"), "c1", WriteOptions{Context: rr.Ctx}); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	lb.Deregister("n00")

	n2 := mk()
	defer n2.Close()
	got, err := n2.CoordinateGet(ctx, "k", ReadOptions{NotFoundOK: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedVals(got), []string{"v2"}) {
		t.Fatalf("recovered read = %v", sortedVals(got))
	}
	// A post-restart overwrite must dominate (fresh dot, not a duplicate
	// of a pre-restart one).
	after, err := n2.CoordinatePut(ctx, "k", []byte("v3"), "c1", WriteOptions{Context: got.Ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedVals(after), []string{"v3"}) {
		t.Fatalf("post-restart put = %v", sortedVals(after))
	}
}

// TestReplBatchAckImpliesDurable: a replica whose WAL has crashed must fail
// repl.batch RPCs rather than ack states it cannot persist.
func TestReplBatchAckImpliesDurable(t *testing.T) {
	lb := transport.NewLoopback()
	t.Cleanup(func() { lb.Close() })
	r := ring.New(16)
	r.Add("a")
	dir := filepath.Join(t.TempDir(), "a")
	nd, err := New(Config{
		ID: "a", Mech: core.NewDVV(), Transport: lb, Ring: r,
		N: 1, R: 1, W: 1, Timeout: time.Second,
		DataDir: dir, Fsync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	// Build a foreign state to push.
	other := core.NewDVV()
	scratch, err := other.Put(other.NewState(), other.EmptyContext(), []byte("x"), core.WriteInfo{Server: "b", Client: "c"})
	if err != nil {
		t.Fatal(err)
	}
	crashed := make(chan struct{})
	nd.Store().FailWALAt(1, func() { close(crashed) }) // tear immediately
	w := getWriter()
	w.Uvarint(1)
	w.String("k")
	nd.cfg.Mech.EncodeState(w, scratch)
	resp := nd.Handle(context.Background(), "b", transport.Request{Method: MethodReplBatch, Body: append([]byte(nil), w.Bytes()...)})
	putWriter(w)
	if resp.Err == "" {
		t.Fatal("repl.batch acked a state the store could not persist")
	}
	select {
	case <-crashed:
	case <-time.After(time.Second):
		t.Fatal("failpoint never fired")
	}
	if _, ok := nd.Store().Get("k"); ok {
		t.Fatal("unpersisted state installed in memory")
	}
}

// TestConcurrentDurablePuts exercises the WAL group-commit path through
// the node put pipeline under the race detector.
func TestConcurrentDurablePuts(t *testing.T) {
	lb := transport.NewLoopback()
	t.Cleanup(func() { lb.Close() })
	r := ring.New(16)
	r.Add("solo")
	nd, err := New(Config{
		ID: "solo", Mech: core.NewDVV(), Transport: lb, Ring: r,
		N: 1, R: 1, W: 1, Timeout: 5 * time.Second,
		DataDir: filepath.Join(t.TempDir(), "solo"), Fsync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%5)
				rr, err := nd.CoordinateGet(ctx, key, ReadOptions{NotFoundOK: true})
				if err != nil {
					errs <- err
					return
				}
				if _, err := nd.CoordinatePut(ctx, key, []byte(fmt.Sprintf("g%d-%d", g, i)), dot.ID(fmt.Sprintf("c%d", g)), WriteOptions{Context: rr.Ctx}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatal(err)
		}
	}
	st := nd.Store().Stats()
	if st.WALAppends == 0 || st.WALSyncs == 0 {
		t.Fatalf("durable puts did not reach the WAL: %+v", st)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
}
