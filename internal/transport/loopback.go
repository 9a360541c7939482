package transport

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dot"
)

// Loopback hosts a whole cluster in one process over the real RPC stack:
// every registered id gets its own Mux listening on 127.0.0.1:0, and
// Send(from, …) leaves through from's mux, so in-process clusters pay the
// same framing, request correlation and per-request deadlines as
// production. Ids that send without registering (cluster clients, often
// one per operation) share one dial-only mux, created on first use: a
// request frame carries its sender id, so the servers still see each
// client as itself. Loopback injects no faults; wrap it in Chaos for
// that.
type Loopback struct {
	mu      sync.Mutex
	muxes   map[dot.ID]*Mux   // per registered id, kept after Deregister
	addrs   map[dot.ID]string // listen address per registered id
	clients *Mux              // the shared dial-only mux, nil until used
	closed  bool
}

// NewLoopback creates an empty in-process host.
func NewLoopback() *Loopback {
	return &Loopback{muxes: make(map[dot.ID]*Mux), addrs: make(map[dot.ID]string)}
}

// Register starts a listening mux for id serving h and teaches every
// other mux its address. Registering an id again (a restart) replaces its
// mux: peers forget the old one at once and the old mux is closed.
func (l *Loopback) Register(id dot.ID, h Handler) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	m := NewMux(id, l.addrs) // NewMux copies the map
	m.SetAddr(id, "127.0.0.1:0")
	m.Register(id, h)
	if err := m.Listen(); err != nil {
		l.mu.Unlock()
		panic(fmt.Sprintf("transport: loopback listen for %s: %v", id, err))
	}
	old := l.muxes[id]
	l.muxes[id] = m
	l.addrs[id] = m.Addr()
	for _, o := range l.others(id) {
		if old != nil {
			o.Deregister(id) // drop conns and backoff left by the old mux
		}
		o.SetAddr(id, l.addrs[id])
	}
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// others returns every mux but id's (every mux, for id ""), the client
// mux included. Called with l.mu held.
func (l *Loopback) others(id dot.ID) []*Mux {
	out := make([]*Mux, 0, len(l.muxes)+1)
	for oid, m := range l.muxes {
		if oid != id {
			out = append(out, m)
		}
	}
	if l.clients != nil {
		out = append(out, l.clients)
	}
	return out
}

// Deregister makes id unreachable: every other mux drops its address, its
// dial backoff and the requests in flight to it, so new Sends fail at once
// with ErrUnreachable, and id's handler is cleared. id's mux stays open
// until id registers again or the Loopback closes, so a response id is
// still owed — member.leave deregisters the leaver from inside the
// handler answering it — reaches it over the connection it came in on.
func (l *Loopback) Deregister(id dot.ID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.addrs, id)
	for _, m := range l.others(id) {
		m.Deregister(id)
	}
	if m := l.muxes[id]; m != nil {
		m.Deregister(id) // clears the handler
	}
}

// loopbackClients is the shared dial-only mux's own id. It only names
// the mux's connections in their hello frames: requests carry the
// client's id, and the mux never listens.
const loopbackClients dot.ID = "loopback-clients"

// Send delivers req from `from` to `to` through from's mux, or through
// the shared client mux when `from` never registered.
func (l *Loopback) Send(ctx context.Context, from, to dot.ID, req Request) (Response, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Response{}, ErrClosed
	}
	m := l.muxes[from]
	if m == nil {
		if l.clients == nil {
			l.clients = NewMux(loopbackClients, l.addrs)
		}
		m = l.clients
	}
	l.mu.Unlock()
	return m.Send(ctx, from, to, req)
}

// BytesSent sums the framed bytes written by every live mux.
func (l *Loopback) BytesSent() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for _, m := range l.others("") {
		n += m.BytesSent()
	}
	return n
}

// MessagesSent sums the frames written by every live mux.
func (l *Loopback) MessagesSent() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for _, m := range l.others("") {
		n += m.MessagesSent()
	}
	return n
}

// Close closes every mux and waits for their goroutines.
func (l *Loopback) Close() error {
	l.mu.Lock()
	l.closed = true
	muxes := l.others("")
	l.muxes, l.clients = map[dot.ID]*Mux{}, nil
	l.mu.Unlock()
	for _, m := range muxes {
		m.Close()
	}
	return nil
}

var (
	_ Transport = (*Loopback)(nil)
	_ Meter     = (*Loopback)(nil)
)
