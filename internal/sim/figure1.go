package sim

import (
	"strings"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/stats"
)

// figure1Steps are the events of the paper's Figure 1, in order. Two
// servers (A, B), one object, three clients. The annotations show the
// causality metadata at each relevant point under each mechanism.
var figure1Steps = []string{
	"c1 PUT at A (no context)            — w1",
	"c1 reads {w1}, PUT at A             — w2",
	"c2 still holds w1's context, PUT at A — w3 (races w2)",
	"B syncs from A's pre-race state {w2}",
	"c3 reads {w2} at B, PUT at B        — w4",
	"A and B synchronize",
	"c1 reads all at A, PUT at A         — w5",
}

// RunFigure1 replays Figure 1 under the three mechanisms of panels
// (a) causal histories, (b) per-server VV, (c) DVV, returning one table
// whose cells show server A's (or B's, for step 5) object state after
// each event. The server-VV column reproduces the paper's highlighted
// failure: after the race it holds a single version — w2 was silently
// lost.
func RunFigure1() *stats.Table {
	mechs := []core.Mechanism{core.NewOracle(), core.NewServerVV(), core.NewDVV()}
	cols := []string{"event", "(a) causal histories", "(b) per-server VV", "(c) DVV"}
	t := stats.NewTable("Figure 1 — two servers, one object, racing clients", cols...)

	rows := make([][]string, len(figure1Steps))
	for i := range rows {
		rows[i] = []string{figure1Steps[i]}
	}

	for _, m := range mechs {
		sA := m.NewState()
		put := func(st core.State, ctx core.Context, val, srv, cli string) core.State {
			ns, err := m.Put(st, ctx, []byte(val), core.WriteInfo{Server: dot.ID(srv), Client: dot.ID(cli)})
			if err != nil {
				// Unreachable for the built-in mechanisms on this script.
				panic(err)
			}
			return ns
		}
		// Step 0: blind write w1 at A.
		sA = put(sA, m.EmptyContext(), "w1", "A", "c1")
		rows[0] = append(rows[0], renderState(sA))
		// Step 1: c1 read {w1}, writes w2.
		ctxW1 := m.Read(sA).Ctx
		sA = put(sA, ctxW1, "w2", "A", "c1")
		rows[1] = append(rows[1], renderState(sA))
		// Keep B's snapshot of the pre-race state {w2} (states are
		// immutable, so the snapshot is sA itself).
		preRace := sA
		// Step 2: c2 writes with w1's stale context.
		sA = put(sA, ctxW1, "w3", "A", "c2")
		rows[2] = append(rows[2], renderState(sA))
		// Step 3: B receives the pre-race state.
		sB := m.Sync(m.NewState(), preRace)
		rows[3] = append(rows[3], renderState(sB))
		// Step 4: c3 reads at B, writes w4.
		sB = put(sB, m.Read(sB).Ctx, "w4", "B", "c3")
		rows[4] = append(rows[4], renderState(sB))
		// Step 5: servers synchronize.
		sA = m.Sync(sA, sB)
		rows[5] = append(rows[5], renderState(sA))
		// Step 6: c1 reads everything, writes w5.
		sA = put(sA, m.Read(sA).Ctx, "w5", "A", "c1")
		rows[6] = append(rows[6], renderState(sA))
	}
	for _, r := range rows {
		cells := make([]any, len(r))
		for i, c := range r {
			cells[i] = c
		}
		t.AddRow(cells...)
	}
	return t
}

// Figure1Verdict summarises whether each mechanism preserved both racing
// writes (the paper's point): values retained at server A right after the
// race, and which were lost.
func Figure1Verdict() *stats.Table {
	t := stats.NewTable("Figure 1 verdict — state at A after the w2/w3 race",
		"mechanism", "siblings after race", "lost updates", "precise")
	for _, m := range []core.Mechanism{core.NewOracle(), core.NewServerVV(), core.NewDVV(), core.NewDVVSet(), core.NewClientVV(), core.NewVVE()} {
		sA := m.NewState()
		sA, _ = m.Put(sA, m.EmptyContext(), []byte("w1"), core.WriteInfo{Server: "A", Client: "c1"})
		ctxW1 := m.Read(sA).Ctx
		sA, _ = m.Put(sA, ctxW1, []byte("w2"), core.WriteInfo{Server: "A", Client: "c1"})
		sA, _ = m.Put(sA, ctxW1, []byte("w3"), core.WriteInfo{Server: "A", Client: "c2"})
		vals := valuesOf(m, sA)
		lost := []string{}
		for _, want := range []string{"w2", "w3"} {
			found := false
			for _, v := range vals {
				if v == want {
					found = true
				}
			}
			if !found {
				lost = append(lost, want)
			}
		}
		precise := "yes"
		if len(lost) > 0 {
			precise = "NO"
		}
		lostStr := strings.Join(lost, ",")
		if lostStr == "" {
			lostStr = "-"
		}
		t.AddRow(m.Name(), strings.Join(vals, " || "), lostStr, precise)
	}
	return t
}
