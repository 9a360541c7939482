// Hash-tree anti-entropy: the ae.tree walk, the node's only anti-entropy
// exchange.
//
// The walk runs root-first over the incrementally-maintained hash tree
// both storage engines keep at install time (see antientropy.Tree): the
// initiator sends the hashes of its current frontier (just the root on
// round one), the responder answers each node with "equal", the child
// hashes of a differing interior node, or the (key, hash) pairs of a
// differing leaf bucket. Converged replicas spend one round trip and ~20
// bytes; divergence costs O(diff · depth) node compares instead of a
// keyspace scan. Reconciliation of the diverging keys then reuses the
// pull (repl.get + SyncKey) and push (repl.batch) machinery of the rest
// of the replication plane.
package node

import (
	"repro/internal/antientropy"
	"repro/internal/codec"
	"repro/internal/dot"
	"repro/internal/transport"

	"context"
	"sort"
)

// aeTreeBatch bounds how many tree nodes one ae.tree request may carry.
// A full walk needs at most TreeLeaves frontier entries; batching lets a
// wide frontier cross the wire in a few bounded frames instead of one
// unbounded one.
const aeTreeBatch = 512

// Response tags, one per requested node.
const (
	aeTreeEqual    = 0 // hashes match; subtree converged
	aeTreeChildren = 1 // differing interior node: child hashes follow
	aeTreeLeaf     = 2 // differing leaf bucket: (key, hash) pairs follow
)

// aeTreeItem is one (level, index, hash) frontier entry of the walk.
type aeTreeItem struct {
	level, index int
	hash         uint64
}

// encodeAETreeRequest writes a canonical ae.tree request: a count, then
// the items in walk order — levels non-increasing, indexes strictly
// increasing within a level.
func encodeAETreeRequest(w *codec.Writer, items []aeTreeItem) {
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.Uvarint(uint64(it.level))
		w.Uvarint(uint64(it.index))
		w.Uvarint(it.hash)
	}
}

// decodeAETreeRequest parses and validates an ae.tree request body.
// Anything non-canonical — zero or oversized count, coordinates outside
// the fixed tree geometry, items out of walk order, trailing bytes — is
// rejected with ErrCorrupt, so a response is only ever computed for a
// frame the encoder could have produced.
func decodeAETreeRequest(body []byte) ([]aeTreeItem, error) {
	r := codec.NewReader(body)
	cnt := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if cnt == 0 || cnt > aeTreeBatch || cnt > uint64(r.Remaining()) {
		return nil, codec.ErrCorrupt
	}
	items := make([]aeTreeItem, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		level := r.Uvarint()
		index := r.Uvarint()
		hash := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if level > uint64(antientropy.TreeRootLevel()) || index >= uint64(antientropy.TreeLevelSize(int(level))) {
			return nil, codec.ErrCorrupt
		}
		it := aeTreeItem{level: int(level), index: int(index), hash: hash}
		if i > 0 {
			prev := items[len(items)-1]
			if it.level > prev.level || (it.level == prev.level && it.index <= prev.index) {
				return nil, codec.ErrCorrupt
			}
		}
		items = append(items, it)
	}
	r.ExpectEOF()
	if r.Err() != nil {
		return nil, r.Err()
	}
	return items, nil
}

// handleAETree answers one batch of tree-node compares. The responder
// never walks its keyspace: equal nodes cost one TreeDigest read,
// differing interiors one read per child, and only a differing leaf
// touches actual keys — the O(bucket members) TreeBucketKeys listing.
func (n *Node) handleAETree(body []byte) transport.Response {
	items, err := decodeAETreeRequest(body)
	if err != nil {
		return fail(err)
	}
	w := codec.NewWriter(64 + 16*len(items))
	for _, it := range items {
		local := n.store.TreeDigest(it.level, it.index)
		switch {
		case local == it.hash:
			w.Uvarint(aeTreeEqual)
		case it.level > 0:
			w.Uvarint(aeTreeChildren)
			lo, hi := antientropy.TreeChildSpan(it.level, it.index)
			w.Uvarint(uint64(hi - lo))
			for c := lo; c < hi; c++ {
				w.Uvarint(n.store.TreeDigest(it.level-1, c))
			}
		default:
			w.Uvarint(aeTreeLeaf)
			keys := n.store.TreeBucketKeys(it.index)
			w.Uvarint(uint64(len(keys)))
			for _, k := range keys {
				w.String(k)
				w.Uvarint(n.store.KeyHash(k))
			}
		}
	}
	return transport.Response{Body: w.Bytes()}
}

// antiEntropyTree reconciles with one peer by walking the hash tree from
// the root, descending only into subtrees whose hashes differ. The walk
// proceeds breadth-first: each round ships the current frontier (capped
// at aeTreeBatch per frame), and a differing leaf contributes its keys to
// the reconciliation scope. Afterwards the diverging keys are pulled from
// the peer and the merged states pushed back, so the peer converges too.
func (n *Node) antiEntropyTree(ctx context.Context, peer dot.ID) error {
	root := antientropy.TreeRootLevel()
	frontier := []aeTreeItem{{level: root, index: 0, hash: n.store.TreeDigest(root, 0)}}
	scope := make(map[string]bool)   // every diverging key, either side
	peerHas := make(map[string]bool) // diverging keys the peer holds (pull set)
	var rounds, nodes uint64
	defer func() {
		n.bump(func(s *Stats) { s.AETreeRounds += rounds; s.AETreeNodes += nodes })
	}()
	for len(frontier) > 0 {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		batch := frontier
		if len(batch) > aeTreeBatch {
			batch = batch[:aeTreeBatch]
		}
		frontier = frontier[len(batch):]
		w := codec.NewWriter(16 + 16*len(batch))
		encodeAETreeRequest(w, batch)
		resp, err := n.cfg.Transport.Send(ctx, n.cfg.ID, peer, transport.Request{
			Method: MethodAETree, Body: w.Bytes(),
		})
		rounds++
		nodes += uint64(len(batch))
		if err != nil {
			return err
		}
		if aerr := transport.AppError(resp); aerr != nil {
			return aerr
		}
		r := codec.NewReader(resp.Body)
		for _, it := range batch {
			tag := r.Uvarint()
			if r.Err() != nil {
				return r.Err()
			}
			switch tag {
			case aeTreeEqual:
			case aeTreeChildren:
				lo, hi := antientropy.TreeChildSpan(it.level, it.index)
				if it.level == 0 {
					return codec.ErrCorrupt
				}
				cnt := r.Uvarint()
				if r.Err() != nil {
					return r.Err()
				}
				if cnt != uint64(hi-lo) {
					return codec.ErrCorrupt
				}
				for c := lo; c < hi; c++ {
					peerHash := r.Uvarint()
					if local := n.store.TreeDigest(it.level-1, c); local != peerHash {
						frontier = append(frontier, aeTreeItem{level: it.level - 1, index: c, hash: local})
					}
				}
			case aeTreeLeaf:
				if it.level != 0 {
					return codec.ErrCorrupt
				}
				cnt := r.Uvarint()
				if r.Err() != nil {
					return r.Err()
				}
				if cnt > uint64(r.Remaining()) {
					return codec.ErrCorrupt
				}
				peerKeys := make(map[string]uint64, cnt)
				for j := uint64(0); j < cnt; j++ {
					k := r.String()
					h := r.Uvarint()
					if r.Err() != nil {
						return r.Err()
					}
					peerKeys[k] = h
				}
				for k, h := range peerKeys {
					if n.store.KeyHash(k) != h {
						scope[k] = true
						peerHas[k] = true
					}
				}
				// Local keys the peer lacks (or holds differently) in the
				// same bucket: push candidates.
				for _, k := range n.store.TreeBucketKeys(it.index) {
					if h, ok := peerKeys[k]; !ok || h != n.store.KeyHash(k) {
						scope[k] = true
					}
				}
			default:
				return codec.ErrCorrupt
			}
		}
		r.ExpectEOF()
		if r.Err() != nil {
			return r.Err()
		}
	}
	// Pull the peer's version of every diverging key it holds, then push
	// the (now merged) local states back so the peer converges too.
	pulls := make([]string, 0, len(peerHas))
	for k := range peerHas {
		pulls = append(pulls, k)
	}
	sort.Strings(pulls)
	if err := n.pullKeys(ctx, peer, pulls); err != nil {
		return err
	}
	scoped := make([]string, 0, len(scope))
	for k := range scope {
		scoped = append(scoped, k)
	}
	sort.Strings(scoped)
	n.pushStates(ctx, peer, scoped)
	return nil
}
