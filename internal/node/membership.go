package node

// Membership: the node-level elasticity protocol. Three pieces cooperate
// so that a key can move between replica servers without losing
// acknowledged writes or manufacturing false concurrency (the property
// dotted version vectors make safe — causality is tracked per replica
// *server*, so a key's clock stays valid on whichever server it lands):
//
//   - Handoff (HandoffTo): a batched key/state stream over repl.batch. The
//     sender snapshots every local key a predicate selects and pushes them
//     to one destination; the receiver folds each state in with Sync, so
//     handoff is idempotent and safe to repeat or interleave with live
//     writes.
//   - Join gossip (MethodJoin): a joiner announces itself through any
//     member; the contacted member adds it to the ring, forwards the
//     announcement to the other members (one hop), replies with the full
//     membership, and every member streams the keys the joiner now owns.
//   - Leave (MethodLeave + Node.Leave): a departing node first streams
//     each of its keys to the key's post-departure owners, drains its
//     pending hints, then announces the departure so members drop it from
//     their rings. Hints addressed *to* a departed node are re-routed by
//     DeliverHints to the key's current owners.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/dot"
	"repro/internal/ring"
	"repro/internal/transport"
)

// ---------------------------------------------------------------------------
// Handoff: batched key/state streaming.
// ---------------------------------------------------------------------------

// HandoffTo streams every local key selected by owns to dest in repl.batch
// frames, returning the number of keys sent. The receiver merges each
// state with Sync, so a concurrent write on either side is never lost —
// the batch just reflects the sender's snapshot at send time;
// anti-entropy covers the rest.
func (n *Node) HandoffTo(ctx context.Context, dest dot.ID, owns func(key string) bool) (int, error) {
	var selected []string
	for _, k := range n.store.Keys() {
		if owns == nil || owns(k) {
			selected = append(selected, k)
		}
	}
	sort.Strings(selected)
	sent := 0
	for len(selected) > 0 {
		batch := selected[:min(len(selected), DefaultReplBatchKeys)]
		selected = selected[len(batch):]
		// Snapshot one frame's worth at a time, skipping keys that
		// vanished between listing and snapshotting.
		items := make([]batchItem, 0, len(batch))
		for _, k := range batch {
			if st, ok := n.store.Snapshot(k); ok {
				items = append(items, batchItem{key: k, st: st})
			}
		}
		for len(items) > 0 {
			c, err := n.sendReplBatch(ctx, dest, items)
			if err != nil {
				return sent, err
			}
			items = items[c:]
			sent += c
			// Counted per frame so a mid-stream failure still accounts
			// the keys that did reach the destination.
			n.bump(func(s *Stats) { s.HandoffKeys += uint64(c) })
		}
	}
	return sent, nil
}

// ---------------------------------------------------------------------------
// Join / leave gossip.
// ---------------------------------------------------------------------------

// encodeMembership writes (id, addr) pairs for the current ring members;
// addresses come from the transport's AddrBook when it has one (a Mux),
// otherwise they are empty (an in-process Loopback assigns them itself).
func (n *Node) encodeMembership(w *codec.Writer) {
	members := n.cfg.Ring.Members()
	addrs := map[dot.ID]string{}
	if ab, ok := n.cfg.Transport.(transport.AddrBook); ok {
		addrs = ab.Peers()
	}
	if n.cfg.Addr != "" {
		addrs[n.cfg.ID] = n.cfg.Addr
	}
	w.Uvarint(uint64(len(members)))
	for _, id := range members {
		w.String(string(id))
		w.String(addrs[id])
	}
}

// JoinCluster announces this node to an existing cluster through member
// `via` (which the transport must already be able to reach) and adopts
// the returned membership into the local ring and address book. The
// existing members stream the keys this node now owns as soon as they
// process the announcement.
func (n *Node) JoinCluster(ctx context.Context, via dot.ID) error {
	w := getWriter()
	defer putWriter(w)
	w.String(string(n.cfg.ID))
	w.String(n.cfg.Addr)
	w.Bool(false) // not forwarded: the contacted member fans out
	resp, err := n.cfg.Transport.Send(ctx, n.cfg.ID, via, transport.Request{
		Method: MethodJoin, Body: w.Bytes(),
	})
	if err != nil {
		return fmt.Errorf("node: join via %s: %w", via, err)
	}
	if aerr := transport.AppError(resp); aerr != nil {
		return fmt.Errorf("node: join via %s: %w", via, aerr)
	}
	if err := n.adoptMembership(codec.NewReader(resp.Body)); err != nil {
		return err
	}
	n.cfg.Ring.Add(n.cfg.ID)
	return nil
}

// adoptMembership merges an encoded (id, addr) member list into the local
// ring and address book, skipping members this node has seen leave
// (tombstoned): passive gossip must not resurrect a departed node — only
// an explicit re-join announcement (handleJoin) clears a tombstone.
func (n *Node) adoptMembership(r *codec.Reader) error {
	count := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	if count > uint64(r.Remaining()) {
		return codec.ErrCorrupt
	}
	ab, hasAddrs := n.cfg.Transport.(transport.AddrBook)
	for i := uint64(0); i < count; i++ {
		id := dot.ID(r.String())
		addr := r.String()
		if r.Err() != nil {
			return r.Err()
		}
		n.mu.Lock()
		_, gone := n.departed[id]
		n.mu.Unlock()
		if gone && id != n.cfg.ID {
			continue
		}
		n.cfg.Ring.Add(id)
		if hasAddrs && addr != "" && id != n.cfg.ID {
			ab.SetAddr(id, addr)
		}
	}
	return nil
}

// SyncMembership exchanges membership with one peer: it announces this
// node (a forwarded, terminal join — no fan-out, no handoff scan on a
// known member) and adopts the peer's member list from the reply. The
// anti-entropy tick calls this so private-ring deployments converge on
// membership they missed, e.g. two nodes that joined through different
// members at the same time.
func (n *Node) SyncMembership(ctx context.Context, peer dot.ID) error {
	w := getWriter()
	defer putWriter(w)
	w.String(string(n.cfg.ID))
	w.String(n.cfg.Addr)
	w.Bool(true)
	resp, err := n.cfg.Transport.Send(ctx, n.cfg.ID, peer, transport.Request{
		Method: MethodJoin, Body: w.Bytes(),
	})
	if err != nil {
		return err
	}
	if aerr := transport.AppError(resp); aerr != nil {
		return aerr
	}
	return n.adoptMembership(codec.NewReader(resp.Body))
}

func (n *Node) handleJoin(body []byte) transport.Response {
	r := codec.NewReader(body)
	id := dot.ID(r.String())
	addr := r.String()
	forwarded := r.Bool()
	if r.Err() != nil {
		return fail(r.Err())
	}
	if id == "" {
		return transport.Response{Err: "join: empty node id"}
	}
	// Only a direct announcement (the joiner itself calling JoinCluster)
	// overrides a leave tombstone. Forwarded copies and the periodic
	// SyncMembership pings are passive — one arriving after the node's
	// member.leave must not resurrect it as a permanent ghost.
	n.mu.Lock()
	if forwarded {
		if _, gone := n.departed[id]; gone {
			n.mu.Unlock()
			w := codec.NewWriter(256)
			n.encodeMembership(w)
			return transport.Response{Body: w.Bytes()}
		}
	} else {
		delete(n.departed, id)
		// A direct announcement means the node is alive right now; stale
		// suspicion from before its departure must not make coordinators
		// skip it, nor a stale redelivery backoff delay its hints.
		delete(n.suspect, id)
		delete(n.hintRetry, id)
	}
	n.mu.Unlock()
	if ab, ok := n.cfg.Transport.(transport.AddrBook); ok && addr != "" {
		ab.SetAddr(id, addr)
	}
	already := containsID(n.cfg.Ring.Members(), id)
	n.cfg.Ring.Add(id)

	// Fan the announcement out exactly once: only the member the joiner
	// contacted forwards, and forwarded copies are terminal.
	if !forwarded {
		for _, m := range n.cfg.Ring.Members() {
			if m == n.cfg.ID || m == id {
				continue
			}
			m := m
			if !n.track() {
				break
			}
			go func() {
				defer n.wg.Done()
				fctx, cancel := context.WithTimeout(context.Background(), n.cfg.Timeout)
				defer cancel()
				w := getWriter()
				defer putWriter(w)
				w.String(string(id))
				w.String(addr)
				w.Bool(true)
				_, _ = n.cfg.Transport.Send(fctx, n.cfg.ID, m, transport.Request{
					Method: MethodJoin, Body: w.Bytes(),
				})
			}()
		}
	}

	// Stream the keys the joiner now owns (first join processing only;
	// re-announcements skip the scan). Handoff runs in the background so
	// the join ack is immediate; Sync-idempotence makes any overlap with
	// live writes safe.
	if !already && id != n.cfg.ID && n.track() {
		go func() {
			defer n.wg.Done()
			hctx, cancel := context.WithTimeout(context.Background(), n.cfg.Timeout)
			defer cancel()
			_, _ = n.HandoffTo(hctx, id, func(key string) bool {
				return n.cfg.Ring.Owns(id, key, n.cfg.N)
			})
		}()
	}

	w := codec.NewWriter(256)
	n.encodeMembership(w)
	return transport.Response{Body: w.Bytes()}
}

func (n *Node) handleLeave(body []byte) transport.Response {
	r := codec.NewReader(body)
	id := dot.ID(r.String())
	if r.Err() != nil {
		return fail(r.Err())
	}
	if id == n.cfg.ID {
		return transport.Response{Err: "leave: cannot evict self"}
	}
	// Tombstone first so membership gossip racing with the leave cannot
	// re-add the departing node. Per-peer failure state goes with it: a
	// departed member can never be probed again, so its suspicion entry
	// would otherwise leak forever (suspicions are only pruned on the
	// Suspected read path, which no one takes for a non-member).
	n.mu.Lock()
	n.departed[id] = struct{}{}
	delete(n.suspect, id)
	delete(n.hintRetry, id) // same leak: no future round could ever clear it
	hasHints := len(n.hints[id]) > 0
	n.mu.Unlock()
	n.cfg.Ring.Remove(id)
	// Hints addressed to the departed peer can never be delivered directly
	// any more; kick a bounded background redelivery so DeliverHints
	// re-routes them to the keys' current owners now instead of waiting
	// for the next anti-entropy tick (which a hint-holding node might not
	// even run).
	if hasHints {
		n.admitBackground(func(ctx context.Context) { n.DeliverHints(ctx) })
	}
	// Forget the peer at the transport level too (drops its address,
	// dial backoff and requests in flight to it; the connection this
	// answer rides on stays up). A bare shared Loopback has no AddrBook,
	// so the cluster deregisters the leaver there; under Chaos over a
	// shared Loopback this deregisters it for every member at once.
	if _, ok := n.cfg.Transport.(transport.AddrBook); ok {
		n.cfg.Transport.Deregister(id)
	}
	return transport.Response{}
}

// Leave performs a graceful departure: every local key is streamed to its
// post-departure owners, pending hints are drained (re-routed now that
// this node's ring no longer lists it... see DeliverHints), and the
// departure is announced to the remaining members. The caller should
// Close the node afterwards.
func (n *Node) Leave(ctx context.Context) error {
	before := n.cfg.Ring.Clone()
	n.cfg.Ring.Remove(n.cfg.ID)
	movs := n.cfg.Ring.Rebalance(before, n.cfg.N)

	// Destinations that gained ranges this node lost.
	dests := map[dot.ID]bool{}
	for _, mv := range movs {
		if !containsID(mv.Lost, n.cfg.ID) {
			continue
		}
		for _, g := range mv.Gained {
			dests[g] = true
		}
	}
	order := make([]dot.ID, 0, len(dests))
	for d := range dests {
		order = append(order, d)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var firstErr error
	for _, dest := range order {
		if _, err := n.HandoffTo(ctx, dest, ring.MovedTo(movs, dest)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n.DeliverHints(ctx)

	// Announce the departure directly to every remaining member.
	for _, m := range n.cfg.Ring.Members() {
		if m == n.cfg.ID {
			continue
		}
		w := getWriter()
		w.String(string(n.cfg.ID))
		_, err := n.cfg.Transport.Send(ctx, n.cfg.ID, m, transport.Request{
			Method: MethodLeave, Body: w.Bytes(),
		})
		putWriter(w)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// WaitHintsDrained delivers hints in rounds until none are pending or the
// context expires — the post-churn convergence helper the elasticity
// walkthrough and the churn experiment use to prove handoff completes.
//
// Rounds that make no progress back off exponentially (with jitter, up
// to waitHintsMaxSleep) instead of spinning every 5ms: through a long
// partition this loop used to be a busy-wait, hammering the dead peer
// with a redelivery round per tick. Progress resets the backoff, so a
// healed peer drains at full speed.
func (n *Node) WaitHintsDrained(ctx context.Context) error {
	const (
		waitHintsBaseSleep = 5 * time.Millisecond
		waitHintsMaxSleep  = 250 * time.Millisecond
	)
	streak := 0
	last := -1
	for n.PendingHints() > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("node: %d hints still pending: %w", n.PendingHints(), err)
		}
		n.DeliverHints(ctx)
		pending := n.PendingHints()
		if pending == 0 {
			break
		}
		if last < 0 || pending < last {
			streak = 0
		} else {
			streak++
		}
		last = pending
		n.mu.Lock()
		sleep := n.backoffFor(streak+1, waitHintsBaseSleep, waitHintsMaxSleep)
		n.mu.Unlock()
		select {
		case <-ctx.Done():
		case <-time.After(sleep):
		}
	}
	return nil
}
