package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Fixed deployment settings, the same for every workload (README, "Fixed
// settings").
const (
	clusterNodes = 3
	replN        = 3
	quorumR      = 2
	quorumW      = 2
	rpcTimeout   = 2 * time.Second
	aeInterval   = time.Second
)

// client is one dial-only connection set: its own mux, so C clients are C
// TCP connections per node.
type client struct {
	id  dot.ID
	mux *transport.Mux
	tr  transport.Transport // mux, or the tracer around it

	// mu guards the session table and the checker log: the open loop runs
	// several ops of one client at once.
	mu       sync.Mutex
	sessions map[uint64]*session
	log      clientLog
	rec      []sample // one per acknowledged op of the measured window
}

// deployment is the three-node TCP cluster under test plus its clients, all
// inside this process: the E3 shape of internal/sim/saturate.go.
type deployment struct {
	spec    spec
	mech    core.Mechanism
	ring    *ring.Ring
	ids     []dot.ID
	muxes   []*transport.Mux
	nodes   []*node.Node
	clients []*client
	dirs    []string // per-node data directories (nil when not durable)
}

// bringUp starts the cluster and its clients. dataRoot receives the node
// data directories of durable workloads. A non-nil tracer is put around
// every transport, at the point transport.Chaos wraps.
func bringUp(s spec, nclients int, dataRoot string, tr *tracer) (*deployment, error) {
	d := &deployment{spec: s, mech: core.NewDVV(), ring: ring.New(0), ids: cluster.NodeIDs(clusterNodes)}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	for _, id := range d.ids {
		d.ring.Add(id)
	}
	for _, id := range d.ids {
		mx := transport.NewMux(id, map[dot.ID]string{id: "127.0.0.1:0"})
		d.muxes = append(d.muxes, mx)
		if err := mx.Listen(); err != nil {
			return nil, fmt.Errorf("listen %s: %w", id, err)
		}
	}
	for i, mx := range d.muxes {
		for j, id := range d.ids {
			if i != j {
				mx.SetAddr(id, d.muxes[j].Addr())
			}
		}
	}
	for i, id := range d.ids {
		cfg := node.Config{
			ID: id, Mech: d.mech, Transport: tr.wrap(d.muxes[i], id), Ring: d.ring,
			N: replN, R: quorumR, W: quorumW,
			Timeout:             rpcTimeout,
			ReadRepair:          true,
			HintedHandoff:       true,
			AntiEntropyInterval: aeInterval,
			Engine:              s.engine,
			MemBudget:           s.memBudget,
			Fsync:               s.fsync,
			MaxInFlight:         s.maxInFlight,
			Seed:                int64(i) + 1,
			Addr:                d.muxes[i].Addr(),
		}
		if s.durable {
			cfg.DataDir = filepath.Join(dataRoot, string(id))
			d.dirs = append(d.dirs, cfg.DataDir)
		}
		nd, err := node.New(cfg)
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, nd)
	}
	for c := 0; c < nclients; c++ {
		id := dot.ID(fmt.Sprintf("c%02d", c))
		mx := transport.NewMux(id, nil)
		for j, nid := range d.ids {
			mx.SetAddr(nid, d.muxes[j].Addr())
		}
		d.clients = append(d.clients, &client{id: id, mux: mx, tr: tr.wrap(mx, id), sessions: make(map[uint64]*session)})
	}
	ok = true
	return d, nil
}

// preload installs write id k+1 as the single value of key k on every
// replica, through the engines the nodes own.
func (d *deployment) preload(st *stream) error {
	errs := make(chan error, len(d.nodes))
	for _, nd := range d.nodes {
		go func(nd *node.Node) {
			errs <- preloadEngine(d.mech, d.ring, nd.Store(), st, d.spec.valueBytes)
		}(nd)
	}
	var first error
	for range d.nodes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// preloadEngine installs the preload of one engine. Each state is what the
// key's coordinator would have minted for that put, so every replica holds
// the same dot and later writes continue its counter.
func preloadEngine(mech core.Mechanism, rg *ring.Ring, eng storage.Engine, st *stream, valueBytes int) error {
	for k, key := range st.keyNames {
		coord, _ := rg.Coordinator(key)
		state, err := mech.Put(mech.NewState(), mech.EmptyContext(),
			valueFor(uint32(k+1), valueBytes), core.WriteInfo{Server: coord, Client: "preload"})
		if err == nil {
			err = eng.SyncKey(key, state)
		}
		if err != nil {
			return fmt.Errorf("preload %s: %w", key, err)
		}
	}
	return nil
}

// closeNodes stops the replicas (each closes its engine without a
// checkpoint) and their transports; the clients stay.
func (d *deployment) closeNodes() {
	for _, nd := range d.nodes {
		nd.Close()
	}
	d.nodes = nil
	for _, mx := range d.muxes {
		mx.Close()
	}
	d.muxes = nil
}

// close tears everything down and removes the data directories.
func (d *deployment) close() {
	for _, c := range d.clients {
		c.mux.Close()
	}
	d.clients = nil
	d.closeNodes()
	for _, dir := range d.dirs {
		os.RemoveAll(dir)
	}
}

// engineOptions is the storage.Options node.New derives from the spec, for
// reopening a node's directory and for the storage probes.
func (s spec) engineOptions(dir string) storage.Options {
	return storage.Options{Engine: s.engine, Dir: dir, Fsync: s.fsync, MemBudget: s.memBudget}
}
