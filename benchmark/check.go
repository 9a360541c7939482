package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/storage"
	"repro/internal/transport"
)

// wrec names one write: the key it went to and its unique value id.
type wrec struct{ key, id uint32 }

// clientLog is what one client connection saw, appended as replies arrive.
type clientLog struct {
	acked []wrec // writes the cluster acknowledged
	// covered lists, for every acked put, the write ids shown by the reply
	// whose context the put presented: the writes it was told to replace.
	covered []wrec
	// doubtful holds failed puts and what they presented: they may or may
	// not have been applied.
	doubtful []wrec
	garbled  int // reply values that are not benchmark values
}

// verdict is the outcome of the correctness gate.
type verdict struct {
	KeysChecked    int    `json:"keys_checked"`
	Acked          int    `json:"acked_writes"`
	Lost           int    `json:"lost"`
	FalseConflicts int    `json:"false_conflicts"`
	Garbled        int    `json:"garbled"`
	MaxSiblings    int    `json:"siblings_per_key_max"`
	First          string `json:"first_problem,omitempty"`
}

func (v verdict) ok() bool { return v.Lost == 0 && v.FalseConflicts == 0 && v.Garbled == 0 }

// history is the merged write history of a run, the ground truth of the gate.
// The final sibling set of a key must be exactly its acknowledged writes
// minus those a later acknowledged put replaced: a missing one is a lost
// write (the first visibility requirement), an extra one a sibling the store
// failed to discard — a false conflict, which also catches a single chained
// writer ending with more than one sibling.
type history struct {
	acked    map[wrec]struct{}
	covered  map[wrec]struct{}
	doubtful map[wrec]struct{}
	touched  map[uint32]struct{} // keys with at least one client write
	garbled  int
	keyNames []string
}

// newHistory merges the client logs. preloaded says ids 1..len(keyNames)
// were installed before traffic, one per key.
func newHistory(st *stream, logs []*clientLog, preloaded bool) *history {
	h := &history{
		acked: map[wrec]struct{}{}, covered: map[wrec]struct{}{}, doubtful: map[wrec]struct{}{},
		touched: map[uint32]struct{}{}, keyNames: st.keyNames,
	}
	if preloaded {
		for k := range st.keyNames {
			h.acked[wrec{uint32(k), uint32(k + 1)}] = struct{}{}
		}
	}
	for _, l := range logs {
		for _, w := range l.acked {
			h.acked[w] = struct{}{}
			h.touched[w.key] = struct{}{}
		}
		for _, w := range l.covered {
			h.covered[w] = struct{}{}
		}
		for _, w := range l.doubtful {
			h.doubtful[w] = struct{}{}
			h.touched[w.key] = struct{}{}
		}
		h.garbled += l.garbled
	}
	return h
}

// keysToCheck is every key of a small key space; of a large one, every key a
// client wrote plus an even sample of the untouched ones (which must still
// hold exactly their preloaded value).
func (h *history) keysToCheck() []uint32 {
	const all, sample = 20000, 2000
	var keys []uint32
	if len(h.keyNames) <= all {
		for k := range h.keyNames {
			keys = append(keys, uint32(k))
		}
		return keys
	}
	step := len(h.keyNames) / sample
	for k := range h.keyNames {
		if _, ok := h.touched[uint32(k)]; ok || k%step == 0 {
			keys = append(keys, uint32(k))
		}
	}
	return keys
}

// judge compares the final sibling ids of the checked keys with the history.
func (h *history) judge(final map[uint32][]uint32) verdict {
	v := verdict{KeysChecked: len(final), Acked: len(h.acked), Garbled: h.garbled}
	problem := func(format string, a ...any) {
		if v.First == "" {
			v.First = fmt.Sprintf(format, a...)
		}
	}
	present := make(map[wrec]struct{})
	for key, ids := range final {
		if len(ids) > v.MaxSiblings {
			v.MaxSiblings = len(ids)
		}
		for _, id := range ids {
			w := wrec{key, id}
			present[w] = struct{}{}
			_, acked := h.acked[w]
			_, doubt := h.doubtful[w]
			_, covered := h.covered[w]
			if (!acked && !doubt) || (covered && !doubt) {
				v.FalseConflicts++
				problem("key %s still holds write %d, which an acknowledged put replaced (or nobody wrote)", h.keyNames[key], id)
			}
		}
	}
	for w := range h.acked {
		if _, checked := final[w.key]; !checked {
			continue
		}
		_, here := present[w]
		_, covered := h.covered[w]
		_, doubt := h.doubtful[w]
		if !here && !covered && !doubt {
			v.Lost++
			problem("key %s lost acknowledged write %d", h.keyNames[w.key], w.id)
		}
	}
	return v
}

// idsOf turns reply values into write ids, counting foreign values.
func idsOf(values [][]byte, garbled *int) []uint32 {
	ids := make([]uint32, 0, len(values))
	for _, val := range values {
		if id, ok := idOf(val); ok {
			ids = append(ids, id)
		} else {
			*garbled++
		}
	}
	return ids
}

// readFinal reads every key to check at level all through the first client
// — the merged view of all three replicas.
func (d *deployment) readFinal(h *history) (map[uint32][]uint32, error) {
	c := d.clients[0]
	final := make(map[uint32][]uint32)
	for _, k := range h.keysToCheck() {
		key := h.keyNames[k]
		coord, _ := d.ring.Coordinator(key)
		rr, err := exchange(d.mech, c.mux, c.id, coord, transport.Request{Method: node.MethodGet,
			Body: node.EncodeGetRequest(d.mech, key, node.ReadOptions{Level: node.LevelAll, NotFoundOK: true})})
		if err != nil {
			return nil, fmt.Errorf("final read of %s: %w", key, err)
		}
		final[k] = idsOf(rr.Values, &h.garbled)
	}
	return final, nil
}

// gate runs the correctness gate on the quiesced cluster: the history of
// every client log against a level-all read of the keys to check.
func (d *deployment) gate(st *stream) (*history, verdict, error) {
	var logs []*clientLog
	for _, c := range d.clients {
		logs = append(logs, &c.log)
	}
	h := newHistory(st, logs, d.spec.preload)
	final, err := d.readFinal(h)
	if err != nil {
		return nil, verdict{}, err
	}
	return h, h.judge(final), nil
}

// readReopened merges, per key to check, what the reopened engines hold: what
// a restarted cluster would serve from only the bytes on disk.
func readReopened(mech core.Mechanism, engines []storage.Engine, h *history) map[uint32][]uint32 {
	final := make(map[uint32][]uint32)
	for _, k := range h.keysToCheck() {
		merged := mech.NewState()
		for _, e := range engines {
			if st, ok := e.Snapshot(h.keyNames[k]); ok {
				merged = mech.Sync(merged, st)
			}
		}
		final[k] = idsOf(mech.Read(merged).Values, &h.garbled)
	}
	return final
}
