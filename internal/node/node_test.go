package node

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/ring"
	"repro/internal/transport"
)

// testCluster wires n nodes over a Chaos-wrapped Loopback (clean until a
// test injects faults) with a shared ring.
func testCluster(t *testing.T, n int, cfg func(*Config)) ([]*Node, *transport.Chaos, *ring.Ring) {
	t.Helper()
	chaos := transport.NewChaos(transport.NewLoopback(), 99)
	t.Cleanup(func() { chaos.Close() })
	r := ring.New(16)
	ids := make([]dot.ID, n)
	for i := range ids {
		ids[i] = dot.ID(fmt.Sprintf("n%02d", i))
		r.Add(ids[i])
	}
	nodes := make([]*Node, n)
	for i, id := range ids {
		c := Config{
			ID: id, Mech: core.NewDVV(), Transport: chaos, Ring: r,
			N: 3, R: 2, W: 2, Timeout: time.Second, Seed: int64(i),
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
	return nodes, chaos, r
}

// ownerOf returns a node that coordinates key (first preference).
func ownerOf(t *testing.T, nodes []*Node, r *ring.Ring, key string) *Node {
	t.Helper()
	id, ok := r.Coordinator(key)
	if !ok {
		t.Fatal("no coordinator")
	}
	for _, n := range nodes {
		if n.ID() == id {
			return n
		}
	}
	t.Fatalf("coordinator %s not found", id)
	return nil
}

func sortedVals(rr core.ReadResult) []string {
	out := make([]string, len(rr.Values))
	for i, v := range rr.Values {
		out[i] = string(v)
	}
	sort.Strings(out)
	return out
}

func TestConfigValidation(t *testing.T) {
	lb := transport.NewLoopback()
	t.Cleanup(func() { lb.Close() })
	r := ring.New(4)
	base := Config{ID: "a", Mech: core.NewDVV(), Transport: lb, Ring: r}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	bad := base
	bad.N, bad.R = 2, 3
	if _, err := New(bad); err == nil {
		t.Fatal("R>N accepted")
	}
	ok := base
	n, err := New(ok)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
}

func TestSingleNodePutGet(t *testing.T) {
	nodes, chaos, _ := testCluster(t, 1, func(c *Config) { c.N, c.R, c.W = 1, 1, 1 })
	n := nodes[0]
	m := n.cfg.Mech
	// Put via RPC handler (as a client would).
	body := EncodePutRequest(m, "k", []byte("v1"), "c1", WriteOptions{})
	resp := n.Handle(context.Background(), "c1", transport.Request{Method: MethodPut, Body: body})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	rr, err := DecodeReadResult(m, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedVals(rr), []string{"v1"}) {
		t.Fatalf("put resp = %v", sortedVals(rr))
	}
	// Get via RPC through the transport.
	gresp, err := chaos.Send(context.Background(), "c1", n.ID(), transport.Request{
		Method: MethodGet, Body: EncodeGetRequest(m, "k", ReadOptions{NotFoundOK: true}),
	})
	if err != nil || gresp.Err != "" {
		t.Fatalf("get: %v %s", err, gresp.Err)
	}
	grr, err := DecodeReadResult(m, gresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedVals(grr), []string{"v1"}) {
		t.Fatalf("get = %v", sortedVals(grr))
	}
	st := n.Stats()
	if st.ClientPuts != 1 || st.ClientGets != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplicationOnPut(t *testing.T) {
	nodes, _, r := testCluster(t, 3, nil)
	key := "replicated-key"
	co := ownerOf(t, nodes, r, key)
	if _, err := co.CoordinatePut(context.Background(), key, []byte("v1"), "c1", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	// All three nodes are in the preference list (N=3=cluster size) and
	// replication is synchronous to W=2, with the rest arriving on the
	// same call path; allow a brief settle for the last ack.
	deadline := time.Now().Add(time.Second)
	for {
		have := 0
		for _, n := range nodes {
			if _, ok := n.Store().Snapshot(key); ok {
				have++
			}
		}
		if have == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication incomplete: %d/3", have)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGetMergesDivergentReplicas(t *testing.T) {
	nodes, _, r := testCluster(t, 3, nil)
	key := "diverged-key"
	co := ownerOf(t, nodes, r, key)
	m := co.cfg.Mech
	// Write two siblings directly into different replicas' stores,
	// simulating a healed partition before any anti-entropy.
	pref := r.Preference(key, 3)
	var n1, n2 *Node
	for _, n := range nodes {
		if n.ID() == pref[0] {
			n1 = n
		}
		if n.ID() == pref[1] {
			n2 = n
		}
	}
	_, _ = n1.Store().Put(key, m.EmptyContext(), []byte("v1"), core.WriteInfo{Server: n1.ID(), Client: "c1"})
	_, _ = n2.Store().Put(key, m.EmptyContext(), []byte("v2"), core.WriteInfo{Server: n2.ID(), Client: "c2"})
	rr, err := co.CoordinateGet(context.Background(), key, ReadOptions{NotFoundOK: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedVals(rr); !reflect.DeepEqual(got, []string{"v1", "v2"}) {
		t.Fatalf("merged get = %v", got)
	}
}

func TestReadRepairConverges(t *testing.T) {
	nodes, _, r := testCluster(t, 3, func(c *Config) { c.ReadRepair = true })
	key := "repair-key"
	co := ownerOf(t, nodes, r, key)
	m := co.cfg.Mech
	pref := r.Preference(key, 3)
	var stale *Node
	for _, n := range nodes {
		if n.ID() == pref[2] {
			stale = n
		}
	}
	// Coordinator writes; stale replica misses it (write direct to store
	// of the two first preference members only).
	_, _ = co.Store().Put(key, m.EmptyContext(), []byte("v1"), core.WriteInfo{Server: co.ID(), Client: "c1"})
	if _, err := co.CoordinateGet(context.Background(), key, ReadOptions{NotFoundOK: true}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := stale.Store().Snapshot(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("read repair did not reach the stale replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestForwardingToOwner(t *testing.T) {
	nodes, _, r := testCluster(t, 5, func(c *Config) { c.N = 2; c.R = 1; c.W = 1 })
	// Find a key and a node that does NOT own it.
	key := "forward-key"
	pref := r.Preference(key, 2)
	var outsider *Node
	for _, n := range nodes {
		if n.ID() != pref[0] && n.ID() != pref[1] {
			outsider = n
			break
		}
	}
	if outsider == nil {
		t.Skip("all nodes own the key")
	}
	if _, err := outsider.CoordinatePut(context.Background(), key, []byte("v1"), "c1", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if outsider.Stats().Forwards == 0 {
		t.Fatal("put was not forwarded")
	}
	rr, err := outsider.CoordinateGet(context.Background(), key, ReadOptions{NotFoundOK: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedVals(rr), []string{"v1"}) {
		t.Fatalf("forwarded get = %v", sortedVals(rr))
	}
}

func TestWriteQuorumFailure(t *testing.T) {
	nodes, chaos, r := testCluster(t, 3, func(c *Config) { c.W = 3 })
	key := "quorum-key"
	co := ownerOf(t, nodes, r, key)
	// Cut the coordinator off from both peers: W=3 can never be met.
	for _, n := range nodes {
		if n.ID() != co.ID() {
			chaos.Partition(co.ID(), n.ID())
		}
	}
	_, err := co.CoordinatePut(context.Background(), key, []byte("v1"), "c1", WriteOptions{})
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("err = %v, want quorum failure", err)
	}
	if co.Stats().QuorumFailures == 0 {
		t.Fatal("quorum failure not counted")
	}
}

func TestAntiEntropyConvergence(t *testing.T) {
	nodes, chaos, r := testCluster(t, 2, func(c *Config) { c.N, c.R, c.W = 2, 1, 1 })
	a, b := nodes[0], nodes[1]
	m := a.cfg.Mech
	// Partition, write different keys at each side.
	chaos.Partition(a.ID(), b.ID())
	_, _ = a.Store().Put("ka", m.EmptyContext(), []byte("va"), core.WriteInfo{Server: a.ID(), Client: "c1"})
	_, _ = b.Store().Put("kb", m.EmptyContext(), []byte("vb"), core.WriteInfo{Server: b.ID(), Client: "c2"})
	_, _ = a.Store().Put("shared", m.EmptyContext(), []byte("sa"), core.WriteInfo{Server: a.ID(), Client: "c1"})
	_, _ = b.Store().Put("shared", m.EmptyContext(), []byte("sb"), core.WriteInfo{Server: b.ID(), Client: "c2"})
	chaos.HealAll()
	if err := a.AntiEntropyWith(context.Background(), b.ID()); err != nil {
		t.Fatal(err)
	}
	// After one round initiated by a: a has pulled kb/shared-b and pushed
	// its merged states back.
	for _, n := range nodes {
		for _, key := range []string{"ka", "kb"} {
			if _, ok := n.Store().Snapshot(key); !ok {
				t.Fatalf("node %s missing %s after AE", n.ID(), key)
			}
		}
		rr, _ := n.Store().Get("shared")
		if got := sortedVals(rr); !reflect.DeepEqual(got, []string{"sa", "sb"}) {
			t.Fatalf("node %s shared = %v", n.ID(), got)
		}
	}
	_ = r
}

func TestAntiEntropyLoopRuns(t *testing.T) {
	nodes, _, _ := testCluster(t, 2, func(c *Config) {
		c.N, c.R, c.W = 2, 1, 1
		c.AntiEntropyInterval = 10 * time.Millisecond
	})
	a, b := nodes[0], nodes[1]
	m := a.cfg.Mech
	_, _ = a.Store().Put("k", m.EmptyContext(), []byte("v"), core.WriteInfo{Server: a.ID(), Client: "c1"})
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := b.Store().Snapshot("k"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("anti-entropy loop never synced the key")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The round counter increments after the whole reconciliation —
	// including the pipelined push-back of merged states — finishes, a few
	// milliseconds after the key itself lands; poll rather than sample.
	for a.Stats().AERounds == 0 && b.Stats().AERounds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no AE rounds counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStatsRPC(t *testing.T) {
	nodes, chaos, _ := testCluster(t, 1, func(c *Config) { c.N, c.R, c.W = 1, 1, 1 })
	n := nodes[0]
	m := n.cfg.Mech
	_ = m
	resp, err := chaos.Send(context.Background(), "cli", n.ID(), transport.Request{Method: MethodStats})
	if err != nil || resp.Err != "" {
		t.Fatalf("stats rpc: %v %s", err, resp.Err)
	}
	if _, err := DecodeStats(resp.Body); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownMethod(t *testing.T) {
	nodes, _, _ := testCluster(t, 1, nil)
	resp := nodes[0].Handle(context.Background(), "x", transport.Request{Method: "bogus"})
	if resp.Err == "" {
		t.Fatal("unknown method accepted")
	}
}

func TestHandleGarbageBodies(t *testing.T) {
	nodes, _, _ := testCluster(t, 1, nil)
	n := nodes[0]
	for _, method := range []string{MethodGet, MethodPut, MethodReplGet, MethodReplBatch} {
		resp := n.Handle(context.Background(), "x", transport.Request{Method: method, Body: []byte{0xFF, 0x01, 0x02}})
		_ = resp // must not panic; error or empty is fine
	}
}
