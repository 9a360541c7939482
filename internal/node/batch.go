package node

// Batched replication: the per-peer coalescing queue behind
// replBatcher.push.
//
// Every replica-state push — coordinator fan-out during puts, sloppy-quorum
// fallbacks, read repair, hint redelivery, anti-entropy reconciliation —
// funnels through one queue per destination peer. Pushes that arrive while
// a frame to that peer is on the wire coalesce into the next frame, so N
// concurrent single-key pushes become ceil(N/DefaultReplBatchKeys)
// repl.batch RPCs instead of N round trips. Membership handoff sends its
// key streams in the same frames (HandoffTo). The frame is a Sync-mergeable
// (key, state)* stream, and the receiver folds every pair in with
// Engine.SyncKey, so a batch is idempotent and safe to interleave with live
// writes — exactly the property that makes coalescing correct: merging is
// order-insensitive and repeat-tolerant.
//
// An ack covers the whole frame (the handler fails the RPC on the first
// state it cannot persist), so a caller's push resolves with the fate of
// the frame that carried its key — a per-key durability promise,
// amortized.

import (
	"context"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/transport"
)

// DefaultReplBatchKeys bounds how many (key, state) pairs ride in one
// repl.batch frame; concurrent pushes to the same peer coalesce up to
// this bound.
const DefaultReplBatchKeys = 64

// replBatchSoftBytes is the per-frame byte budget: a frame stops
// accepting further items once its payload passes this size, so a batch
// of large sibling sets splits into several frames instead of one
// outsized frame that the transport would reject (codec.MaxFrameBytes)
// — or, worse, that would monopolize the shared connection.
const replBatchSoftBytes = 4 << 20

// batchItem is one queued replica-state push awaiting a frame.
type batchItem struct {
	key  string
	st   core.State
	done chan error // buffered 1; resolves with the frame's fate
}

// peerQueue is the coalescing queue for one destination peer.
type peerQueue struct {
	mu       sync.Mutex
	items    []batchItem
	flushing bool
}

// replBatcher owns the per-peer queues.
type replBatcher struct {
	n     *Node
	mu    sync.Mutex
	peers map[dot.ID]*peerQueue
}

func newReplBatcher(n *Node) *replBatcher {
	return &replBatcher{n: n, peers: make(map[dot.ID]*peerQueue)}
}

func (b *replBatcher) queue(peer dot.ID) *peerQueue {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.peers[peer]
	if q == nil {
		q = &peerQueue{}
		b.peers[peer] = q
	}
	return q
}

// push enqueues one (key, state) for peer and waits for the ack of the
// frame that carries it. The state may be a store's installed state: the
// flusher encodes it later, which is safe because states are immutable
// (see core.Mechanism). The context bounds only this caller's wait; the
// frame itself is sent on a fresh node-timeout budget, so one caller's
// tight deadline cannot strand the other keys sharing its frame.
func (b *replBatcher) push(ctx context.Context, peer dot.ID, key string, st core.State) error {
	it := batchItem{key: key, st: st, done: make(chan error, 1)}
	q := b.queue(peer)
	q.mu.Lock()
	q.items = append(q.items, it)
	spawn := !q.flushing
	if spawn {
		q.flushing = true
	}
	q.mu.Unlock()
	if spawn {
		if b.n.track() {
			go func() {
				defer b.n.wg.Done()
				b.flush(peer, q)
			}()
		} else {
			// Shutdown has begun: no flusher may start, so drain whatever
			// is queued (ours included) with errors.
			b.drain(q, errShuttingDown)
		}
	}
	select {
	case err := <-it.done:
		return err
	case <-ctx.Done():
		// The item stays queued and will still be sent (replication
		// outlives a caller's deadline); only this caller's wait is cut
		// short.
		return ctx.Err()
	}
}

// flush drains the queue: it repeatedly takes everything queued, sends
// it in key- and byte-bounded frames, and resolves each item with its
// frame's fate. It exits when the queue goes empty.
func (b *replBatcher) flush(peer dot.ID, q *peerQueue) {
	for {
		q.mu.Lock()
		batch := q.items
		if len(batch) == 0 {
			q.flushing = false
			q.mu.Unlock()
			return
		}
		q.items = nil
		q.mu.Unlock()
		for len(batch) > 0 {
			sent, err := b.n.sendReplBatch(context.Background(), peer, batch)
			for _, it := range batch[:sent] {
				it.done <- err
			}
			batch = batch[sent:]
		}
	}
}

// drain resolves everything queued with err (shutdown path).
func (b *replBatcher) drain(q *peerQueue, err error) {
	q.mu.Lock()
	batch := q.items
	q.items = nil
	q.flushing = false
	q.mu.Unlock()
	for _, it := range batch {
		it.done <- err
	}
}

// sendReplBatch encodes as many leading items as fit one frame (at most
// DefaultReplBatchKeys pairs, stopping past replBatchSoftBytes) and sends
// it on a node-timeout budget under ctx, with the same RPC-cost and
// suspicion bookkeeping as replGet. It returns how many items the frame
// consumed (≥ 1) and the frame's fate.
func (n *Node) sendReplBatch(ctx context.Context, peer dot.ID, items []batchItem) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, n.cfg.Timeout)
	defer cancel()
	pw := getWriter() // payload: the (key, state) pairs, no count prefix yet
	defer putWriter(pw)
	count := 0
	for _, it := range items {
		if count >= DefaultReplBatchKeys {
			break
		}
		mark := pw.Len()
		pw.String(it.key)
		n.cfg.Mech.EncodeState(pw, it.st)
		if count > 0 && pw.Len() > replBatchSoftBytes {
			pw.Truncate(mark) // item opens the next frame instead
			break
		}
		count++
	}
	w := getWriter()
	defer putWriter(w)
	w.Uvarint(uint64(count))
	w.Append(pw.Bytes())
	start := time.Now()
	resp, err := n.cfg.Transport.Send(ctx, n.cfg.ID, peer, transport.Request{
		Method: MethodReplBatch, Body: w.Bytes(),
	})
	n.rpcCost.record(peer, time.Since(start))
	if err != nil {
		n.noteSendFailure(peer)
		return count, err
	}
	n.notePeerOK(peer)
	if aerr := transport.AppError(resp); aerr != nil {
		return count, aerr
	}
	n.bump(func(s *Stats) {
		s.ReplBatches++
		s.BatchedKeys += uint64(count)
	})
	return count, nil
}

// handleReplBatch folds every (key, state) pair of a repl.batch frame into
// the store with Sync.
func (n *Node) handleReplBatch(body []byte) transport.Response {
	r := codec.NewReader(body)
	count := r.Uvarint()
	if r.Err() != nil {
		return fail(r.Err())
	}
	if count > uint64(r.Remaining()) {
		return fail(codec.ErrCorrupt)
	}
	for i := uint64(0); i < count; i++ {
		key := r.String()
		st, err := n.cfg.Mech.DecodeState(r)
		if err != nil {
			return fail(err)
		}
		// An ack is a durability promise: coordinators count it toward W
		// and a handoff sender retires its copy trusting it, so a state
		// that cannot be persisted must fail the frame.
		if err := n.store.SyncKey(key, st); err != nil {
			return fail(err)
		}
		n.bump(func(s *Stats) { s.ReplPuts++ })
	}
	r.ExpectEOF()
	if r.Err() != nil {
		return fail(r.Err())
	}
	return transport.Response{}
}
