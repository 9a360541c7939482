package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dot"
	"repro/internal/transport"
)

// Span kinds.
const (
	kindOp     = "op"     // a client operation: the root span of a request
	kindSend   = "send"   // around Transport.Send, on the sending side
	kindHandle = "handle" // around the registered handler, on the serving side
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. Parent and Background are filled in by attribute
// after the run: the wire format carries no trace id, so causes are assigned
// by time containment, which is exact only because the traced run has one
// client and therefore one request in flight.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent,omitempty"`
	Kind       string `json:"kind"`
	Name       string `json:"name"` // RPC method
	Node       string `json:"node"` // where the span was recorded
	Peer       string `json:"peer,omitempty"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Background bool   `json:"background,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. A nil *tracer is a valid no-op: the
// untraced run passes nil and the transports stay unwrapped.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) record(kind, name string, node, peer dot.ID, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Kind: kind, Name: name, Node: string(node), Peer: string(peer),
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// clientOp records the root span of one client operation.
func (t *tracer) clientOp(client dot.ID, method string, start, end time.Time) {
	if t != nil && t.on.Load() {
		t.record(kindOp, method, client, "", start, end)
	}
}

// wrap puts the tracer around a transport, the way transport.Chaos wraps
// one: Send is timed where it is called, and the handler passed to Register
// is timed where it runs.
func (t *tracer) wrap(inner transport.Transport, node dot.ID) transport.Transport {
	if t == nil {
		return inner
	}
	return &tracedTransport{inner: inner, t: t, node: node}
}

type tracedTransport struct {
	inner transport.Transport
	t     *tracer
	node  dot.ID
}

func (tt *tracedTransport) Send(ctx context.Context, from, to dot.ID, req transport.Request) (transport.Response, error) {
	if !tt.t.on.Load() {
		return tt.inner.Send(ctx, from, to, req)
	}
	start := time.Now()
	resp, err := tt.inner.Send(ctx, from, to, req)
	tt.t.record(kindSend, req.Method, tt.node, to, start, time.Now())
	return resp, err
}

func (tt *tracedTransport) Register(id dot.ID, h transport.Handler) {
	tt.inner.Register(id, func(ctx context.Context, from dot.ID, req transport.Request) transport.Response {
		if !tt.t.on.Load() {
			return h(ctx, from, req)
		}
		start := time.Now()
		resp := h(ctx, from, req)
		tt.t.record(kindHandle, req.Method, tt.node, from, start, time.Now())
		return resp
	})
}

func (tt *tracedTransport) Deregister(id dot.ID) { tt.inner.Deregister(id) }
func (tt *tracedTransport) Close() error         { return tt.inner.Close() }

// opBudget is where the time of one kind of request went: medians over the
// traced ops, in microseconds.
type opBudget struct {
	Ops             int     `json:"ops"`
	ClientOpUs      float64 `json:"client_op_us"`      // root span: encode, send, decode
	ClientHopUs     float64 `json:"client_hop_us"`     // client send minus coordinator handle
	CoordHandleUs   float64 `json:"coord_handle_us"`   // coordinator's handler
	ReplRTTUs       float64 `json:"repl_rtt_us"`       // one coordinator→replica repl.* round trip
	QuorumWaitUs    float64 `json:"quorum_wait_us"`    // part of the handle covered by repl.* sends
	ReplicaHandleUs float64 `json:"replica_handle_us"` // replica's handler for one repl.*
	CoordSelfUs     float64 `json:"coord_self_us"`     // coordinator handle minus child cover
}

// budget is the request-path time budget of a traced run.
type budget struct {
	Get              *opBudget `json:"get,omitempty"`
	Put              *opBudget `json:"put,omitempty"`
	BackgroundMsPerS float64   `json:"background_span_ms_per_s"`
	Spans            int       `json:"spans"`
	SpanMeasured     []string  `json:"span_measured"`
	ProbeEstimated   []string  `json:"probe_estimated"`
}

func isRepl(name string) bool { return strings.HasPrefix(name, "repl.") }

// attribute assigns every span its cause and computes the budget. Ops are
// disjoint in time (one client), so a span belongs to the op whose interval
// holds its start; ae.* spans, spans that start between ops and repl.*
// spans that outlive their op are background.
func (t *tracer) attribute(windowS float64) *budget {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ops []*span
	for i := range t.spans {
		if t.spans[i].Kind == kindOp {
			ops = append(ops, &t.spans[i])
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	children := make(map[int][]*span, len(ops))
	var backgroundNs int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Kind == kindOp {
			continue
		}
		k := sort.Search(len(ops), func(k int) bool { return ops[k].Start > s.Start }) - 1
		owned := k >= 0 && s.Start <= ops[k].End && !strings.HasPrefix(s.Name, "ae.")
		if owned {
			children[ops[k].ID] = append(children[ops[k].ID], s)
			s.Parent = ops[k].ID
		}
		if !owned || s.End > ops[k].End {
			s.Background = true
			if s.Kind == kindHandle {
				backgroundNs += s.dur()
			}
		}
	}

	type parts struct{ op, hop, handle, rtt, wait, replica, self []float64 }
	acc := map[string]*parts{"get": {}, "put": {}}
	for _, o := range ops {
		var clientSend, handle *span
		for _, s := range children[o.ID] {
			switch {
			case s.Kind == kindSend && s.Name == o.Name && s.Node == o.Node:
				clientSend = s
			case s.Kind == kindHandle && s.Name == o.Name:
				handle = s
			}
		}
		p := acc[o.Name]
		if clientSend == nil || handle == nil || p == nil {
			continue
		}
		handle.Parent = clientSend.ID
		var sends, handles []*span
		for _, s := range children[o.ID] {
			if !isRepl(s.Name) {
				continue
			}
			if s.Kind == kindSend && s.Start >= handle.Start && s.Start <= handle.End {
				s.Parent = handle.ID
				sends = append(sends, s)
			} else if s.Kind == kindHandle {
				handles = append(handles, s)
			}
		}
		for _, h := range handles {
			for _, s := range sends {
				if s.Peer == h.Node && h.Start >= s.Start && h.Start <= s.End {
					h.Parent = s.ID
				}
			}
		}
		cover := childCover(handle, sends)
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		p.op = append(p.op, us(o.dur()))
		p.hop = append(p.hop, us(clientSend.dur()-handle.dur()))
		p.handle = append(p.handle, us(handle.dur()))
		p.wait = append(p.wait, us(cover))
		p.self = append(p.self, us(handle.dur()-cover))
		p.rtt = append(p.rtt, meanDurUs(sends, false))
		p.replica = append(p.replica, meanDurUs(handles, true))
	}
	b := &budget{
		Spans:            len(t.spans),
		BackgroundMsPerS: float64(backgroundNs) / 1e6 / windowS,
		SpanMeasured: []string{"client_op_us", "client_hop_us", "coord_handle_us", "repl_rtt_us", "quorum_wait_us",
			"replica_handle_us", "coord_self_us", "background_span_ms_per_s"},
		ProbeEstimated: []string{"local_apply_est_us (store_put_us probe: the store is not injectable into node.Config, so local apply and fsync inside the coordinator are not spanned)",
			"coord_self_us in the per-layer list = coord_handle_us - local_apply_est_us - quorum_wait_us"},
	}
	for name, p := range acc {
		if len(p.op) == 0 {
			continue
		}
		ob := &opBudget{Ops: len(p.op), ClientOpUs: median(p.op), ClientHopUs: median(p.hop), CoordHandleUs: median(p.handle),
			ReplRTTUs: median(p.rtt), QuorumWaitUs: median(p.wait), ReplicaHandleUs: median(p.replica), CoordSelfUs: median(p.self)}
		if name == "get" {
			b.Get = ob
		} else {
			b.Put = ob
		}
	}
	return b
}

// childCover is how much of parent's interval its children cover, counting
// overlapping children once and clipping them to the parent.
func childCover(parent *span, kids []*span) int64 {
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.s - b.s) })
	var cover, end int64
	for _, v := range ivs {
		if v.s > end {
			cover += v.e - v.s
			end = v.e
		} else if v.e > end {
			cover += v.e - end
			end = v.e
		}
	}
	return cover
}

// meanDurUs is the mean duration of the spans, optionally only of those on
// the request path (not background).
func meanDurUs(spans []*span, foregroundOnly bool) float64 {
	var sum int64
	n := 0
	for _, s := range spans {
		if foregroundOnly && s.Background {
			continue
		}
		sum += s.dur()
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// dump writes the raw spans as JSON.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
