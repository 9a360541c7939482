package node

import (
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
