package node

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/storage"
	"repro/internal/transport"
)

var sinkResp transport.Response

// TestReadPathAllocBounds pins the replica side of a read: handleReplGet
// encodes the store's state straight into its reply writer, so what it
// allocates is the request's key string and the reply body's exact-size
// copy — however many siblings the key holds, on either engine. (Copying
// the eight-sibling state first would add ten.)
func TestReadPathAllocBounds(t *testing.T) {
	for _, engine := range []string{storage.EngineMemory, storage.EngineTiered} {
		t.Run(engine, func(t *testing.T) {
			nodes, _, _ := testCluster(t, 1, func(c *Config) {
				if engine == storage.EngineTiered {
					c.Engine, c.DataDir, c.Fsync = engine, t.TempDir(), false
				}
			})
			nd := nodes[0]
			m := nd.cfg.Mech
			const key, siblings = "hot", 8
			for i := 0; i < siblings; i++ {
				if _, err := nd.Store().Put(key, m.EmptyContext(), []byte(fmt.Sprintf("v%d", i)),
					core.WriteInfo{Server: nd.ID(), Client: dot.ID(fmt.Sprintf("c%d", i))}); err != nil {
					t.Fatal(err)
				}
			}
			if got := nd.Store().Siblings(key); got != siblings {
				t.Fatalf("Siblings = %d, want %d", got, siblings)
			}
			body := EncodeReplGetRequest(key)
			if got := testing.AllocsPerRun(100, func() { sinkResp = nd.handleReplGet(body) }); got > 2 {
				t.Errorf("handleReplGet of a hot key: %.1f allocs/op, want ≤ 2", got)
			}
		})
	}
}

// TestRequestPathAllocBounds pins what one coordinated client request
// allocates end to end over a loopback 3-node cluster — the client's
// encode, Send and decode, the coordinator's handler and its replica
// RPCs, and every frame of them both ways. The mux's share is one payload
// per inbound frame plus one handler goroutine per request; the rest is
// per-RPC deadlines, the clock kernel and the node's decodes and reply
// copies. Puts chain the previous reply's context, so the key stays at
// one sibling.
func TestRequestPathAllocBounds(t *testing.T) {
	nodes, tr, r := testCluster(t, 3, nil)
	const key = "hot"
	coord := ownerOf(t, nodes, r, key)
	m := coord.cfg.Mech
	ctx := context.Background()
	w := getWriter()
	defer putWriter(w)
	var wctx core.Context
	send := func(method string) {
		resp, err := tr.Send(ctx, "client", coord.ID(), transport.Request{Method: method, Body: w.Bytes()})
		if err == nil {
			err = transport.AppError(resp)
		}
		var rr core.ReadResult
		if err == nil {
			rr, err = DecodeReadResult(m, resp.Body)
		}
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		wctx = rr.Ctx
	}
	put := func() {
		w.Reset()
		WritePutRequest(w, m, key, []byte("value"), "client", WriteOptions{Context: wctx})
		send(MethodPut)
	}
	get := func() {
		w.Reset()
		WriteGetRequest(w, m, key, ReadOptions{NotFoundOK: true})
		send(MethodGet)
	}
	for i := 0; i < 50; i++ { // dial every connection, warm the pools
		put()
		get()
	}
	for _, c := range []struct {
		name  string
		op    func()
		bound float64
	}{{"put", put, 82}, {"get", get, 54}} { // measured 79 and 51
		got := testing.AllocsPerRun(300, c.op)
		if bound := c.bound + raceAllocSlack; got > bound {
			t.Errorf("coordinated %s: %.1f allocs/op, want ≤ %.0f", c.name, got, bound)
		}
	}
	if n := coord.Store().Siblings(key); n != 1 {
		t.Fatalf("Siblings = %d, want 1", n)
	}
}
