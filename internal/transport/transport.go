// Package transport is the message layer between replica servers and
// clients. It has one RPC implementation, Mux: one long-lived TCP
// connection per peer pair carrying concurrent in-flight requests, with
// request-id correlation, per-request deadlines, coalesced flushes and
// reconnect backoff. cmd/dvvstore runs one per process; the benchmark
// cluster runs one per node.
//
// Loopback hosts a whole cluster in one process on that same stack: one
// Mux per node on 127.0.0.1, so the experiments and tests exercise the
// production framing and deadlines. Chaos wraps either one and is the
// only place faults and latency are injected: severed links, drops,
// duplicates, fixed and per-byte delay, and bounded reorder.
//
// Requests are (method, body) pairs; bodies are opaque mechanism-encoded
// payloads produced with internal/codec.
package transport

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dot"
)

// Request is one RPC request.
//
// Body ownership: Send copies Body onto the wire and keeps no reference
// to it, so a caller may reuse req.Body (a pooled encode buffer) once
// Send returns. An inbound request's Body aliases the frame it arrived
// in; that frame is never reused, so a handler may retain it.
type Request struct {
	Method string
	Body   []byte
}

// Response is one RPC response. Err carries an application-level error
// message (empty = success); transport-level failures surface as Go errors
// from Send. The Body Send returns aliases its inbound frame, which is
// never reused: the caller owns it and may retain it.
type Response struct {
	Err  string
	Body []byte
}

// Handler serves requests addressed to a node. Handlers must be safe for
// concurrent use.
type Handler func(ctx context.Context, from dot.ID, req Request) Response

// Transport delivers requests to named nodes.
type Transport interface {
	// Send delivers req to node `to` and waits for its response. The
	// context bounds the whole exchange. Send must not retain req.Body
	// after it returns.
	Send(ctx context.Context, from, to dot.ID, req Request) (Response, error)
	// Register installs the handler for node id, replacing any previous
	// registration.
	Register(id dot.ID, h Handler)
	// Deregister removes node id from the peer set: its handler (if any)
	// is dropped and subsequent Sends to it fail with ErrUnreachable.
	// Deregistering an unknown id is a no-op. Cluster membership changes
	// call this when a node leaves.
	Deregister(id dot.ID)
	// Close releases transport resources; in-flight Sends may fail.
	Close() error
}

// AddrBook is implemented by transports whose peers are addressed by the
// node itself (the Mux, and Chaos passing through to it); the membership
// gossip uses it to teach a transport about joining peers and to share
// the addresses it knows. Loopback assigns every address itself and does
// not implement it.
type AddrBook interface {
	// SetAddr records or updates a peer's dialable address.
	SetAddr(id dot.ID, addr string)
	// Addr returns this transport's own advertised address.
	Addr() string
	// Peers returns the current id→address map (a copy), including self.
	Peers() map[dot.ID]string
}

// Meter is implemented by transports that account their wire traffic.
// Mux satisfies it, Loopback sums it over its muxes, and Chaos passes it
// through; the anti-entropy (E5) and C3 experiments and the benchmark
// read it to report network cost. Counter semantics: each mux counts the
// frames *it* puts on the wire (the requests it originates, the responses
// it writes and one hello per dial), in framed bytes, so cluster-wide
// sums count every frame once.
type Meter interface {
	// BytesSent returns cumulative framed payload bytes sent.
	BytesSent() uint64
	// MessagesSent returns the number of messages (frames) sent.
	MessagesSent() uint64
}

// ErrUnreachable reports that the destination is not registered, the
// message was dropped, or a partition blocks the pair.
var ErrUnreachable = errors.New("transport: destination unreachable")

// ErrClosed reports use of a closed transport.
var ErrClosed = errors.New("transport: closed")

// AppError converts a Response into a Go error if it carries one.
func AppError(r Response) error {
	if r.Err == "" {
		return nil
	}
	return fmt.Errorf("remote: %s", r.Err)
}
