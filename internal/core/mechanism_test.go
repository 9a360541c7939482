package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/codec"
	"repro/internal/dot"
)

// precise lists the mechanisms that must agree with the oracle on every
// honest trace.
func precise() []Mechanism {
	return []Mechanism{NewDVV(), NewDVVSet(), NewClientVV(), NewVVE(), NewOracle()}
}

func all() []Mechanism {
	return []Mechanism{NewDVV(), NewDVVSet(), NewClientVV(), NewServerVV(), NewPrunedClientVV(8), NewVVE(), NewOracle()}
}

func valueSet(m Mechanism, st State) []string {
	vals := m.Read(st).Values
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v)
	}
	sort.Strings(out)
	return out
}

func TestRegistryNames(t *testing.T) {
	reg := Registry()
	for _, name := range []string{"dvv", "dvvset", "clientvv", "servervv", "prunedvv-8", "vve", "oracle"} {
		if _, ok := reg[name]; !ok {
			t.Errorf("registry missing %q", name)
		}
	}
	for name, m := range reg {
		if m.Name() != name {
			t.Errorf("registry key %q != Name() %q", name, m.Name())
		}
	}
}

func TestEmptyStateBasics(t *testing.T) {
	for _, m := range all() {
		t.Run(m.Name(), func(t *testing.T) {
			st := m.NewState()
			rr := m.Read(st)
			if len(rr.Values) != 0 {
				t.Fatalf("empty state has values: %v", rr.Values)
			}
			if m.Siblings(st) != 0 {
				t.Fatal("empty state has siblings")
			}
			if m.MetadataBytes(st) < 0 {
				t.Fatal("negative metadata")
			}
		})
	}
}

func TestBlindWritesBecomeSiblings(t *testing.T) {
	// Two writes with empty contexts race: every precise mechanism must
	// keep both.
	for _, m := range precise() {
		t.Run(m.Name(), func(t *testing.T) {
			st := m.NewState()
			var err error
			st, err = m.Put(st, m.EmptyContext(), []byte("v1"), WriteInfo{Server: "S1", Client: "c1"})
			if err != nil {
				t.Fatal(err)
			}
			st, err = m.Put(st, m.EmptyContext(), []byte("v2"), WriteInfo{Server: "S1", Client: "c2"})
			if err != nil {
				t.Fatal(err)
			}
			if got := valueSet(m, st); !reflect.DeepEqual(got, []string{"v1", "v2"}) {
				t.Fatalf("siblings = %v", got)
			}
		})
	}
}

func TestReadModifyWriteOverwrites(t *testing.T) {
	for _, m := range all() {
		t.Run(m.Name(), func(t *testing.T) {
			st := m.NewState()
			st, _ = m.Put(st, m.EmptyContext(), []byte("v1"), WriteInfo{Server: "S1", Client: "c1"})
			ctx := m.Read(st).Ctx
			st, _ = m.Put(st, ctx, []byte("v2"), WriteInfo{Server: "S1", Client: "c1"})
			if got := valueSet(m, st); !reflect.DeepEqual(got, []string{"v2"}) {
				t.Fatalf("state = %v, want just v2", got)
			}
		})
	}
}

// figure1 replays the exact script of the paper's Figure 1 against a
// mechanism and returns the sibling values at server A after each phase.
func figure1(t *testing.T, m Mechanism) (afterRace, afterSync, final []string) {
	t.Helper()
	sA, sB := m.NewState(), m.NewState()
	put := func(st State, ctx Context, val, srv, cli string) State {
		ns, err := m.Put(st, ctx, []byte(val), WriteInfo{Server: dot.ID(srv), Client: dot.ID(cli)})
		if err != nil {
			t.Fatalf("%s: put %s: %v", m.Name(), val, err)
		}
		return ns
	}
	// Client 1 writes w1 at A (blind), then reads and writes w2.
	sA = put(sA, m.EmptyContext(), "w1", "A", "c1")
	ctxAfterW1 := m.Read(sA).Ctx
	sA = put(sA, ctxAfterW1, "w2", "A", "c1")
	// Client 2 had read w1 earlier (stale ctx) and writes w3 at A now.
	sA = put(sA, ctxAfterW1, "w3", "A", "c2")
	afterRace = valueSet(m, sA)
	// Server B already held w2 via sync; client 3 reads at B, writes w4.
	sB = m.Sync(sB, sA)
	// In the figure B synced *before* w3 existed; emulate by discarding
	// the race: B's client read {w2,w3}... the figure's B holds only w2.
	// Rebuild B from a pre-race snapshot instead:
	sB = m.NewState()
	pre := m.NewState()
	pre = put(pre, m.EmptyContext(), "w1", "A", "c1")
	preCtx := m.Read(pre).Ctx
	pre = put(pre, preCtx, "w2", "A", "c1")
	sB = m.Sync(sB, pre)
	ctxB := m.Read(sB).Ctx
	sB = put(sB, ctxB, "w4", "B", "c3")
	// Servers exchange state.
	sA = m.Sync(sA, sB)
	afterSync = valueSet(m, sA)
	// A client reads everything at A and writes w5.
	sA = put(sA, m.Read(sA).Ctx, "w5", "A", "c1")
	final = valueSet(m, sA)
	return afterRace, afterSync, final
}

func TestFigure1PreciseMechanisms(t *testing.T) {
	// Panels (a) and (c): the oracle and DVV (and the other precise
	// schemes) keep w2 ∥ w3 after the race, then {w3, w4} after the sync
	// (w2 dominated by w4), then w5 alone.
	for _, m := range precise() {
		t.Run(m.Name(), func(t *testing.T) {
			afterRace, afterSync, final := figure1(t, m)
			if want := []string{"w2", "w3"}; !reflect.DeepEqual(afterRace, want) {
				t.Errorf("after race = %v, want %v", afterRace, want)
			}
			if want := []string{"w3", "w4"}; !reflect.DeepEqual(afterSync, want) {
				t.Errorf("after sync = %v, want %v", afterSync, want)
			}
			if want := []string{"w5"}; !reflect.DeepEqual(final, want) {
				t.Errorf("final = %v, want %v", final, want)
			}
		})
	}
}

func TestFigure1ServerVVLosesTheRace(t *testing.T) {
	// Panel (b): with one entry per server, w3's tag [A:3] falsely
	// dominates w2's [A:2] — the update is silently lost.
	m := NewServerVV()
	afterRace, _, _ := figure1(t, m)
	if len(afterRace) != 1 || afterRace[0] != "w3" {
		t.Fatalf("server VV should have lost w2: %v", afterRace)
	}
}

func TestStateRoundTrip(t *testing.T) {
	for _, m := range all() {
		t.Run(m.Name(), func(t *testing.T) {
			st := m.NewState()
			st, _ = m.Put(st, m.EmptyContext(), []byte("v1"), WriteInfo{Server: "S1", Client: "c1"})
			st, _ = m.Put(st, m.EmptyContext(), []byte("v2"), WriteInfo{Server: "S2", Client: "c2"})
			w := codec.NewWriter(0)
			m.EncodeState(w, st)
			r := codec.NewReader(w.Bytes())
			got, err := m.DecodeState(r)
			if err != nil {
				t.Fatal(err)
			}
			r.ExpectEOF()
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
			if !reflect.DeepEqual(valueSet(m, got), valueSet(m, st)) {
				t.Fatalf("values after round trip: %v != %v", valueSet(m, got), valueSet(m, st))
			}
			// Re-encoding must be byte-identical (deterministic format).
			w2 := codec.NewWriter(0)
			m.EncodeState(w2, got)
			if !bytes.Equal(w.Bytes(), w2.Bytes()) {
				t.Fatal("state encoding not deterministic across round trip")
			}
		})
	}
}

func TestContextRoundTrip(t *testing.T) {
	for _, m := range all() {
		t.Run(m.Name(), func(t *testing.T) {
			st := m.NewState()
			st, _ = m.Put(st, m.EmptyContext(), []byte("v1"), WriteInfo{Server: "S1", Client: "c1"})
			ctx := m.Read(st).Ctx
			w := codec.NewWriter(0)
			m.EncodeContext(w, ctx)
			if m.ContextBytes(ctx) != w.Len() {
				t.Fatalf("ContextBytes = %d, encoded %d", m.ContextBytes(ctx), w.Len())
			}
			r := codec.NewReader(w.Bytes())
			got, err := m.DecodeContext(r)
			if err != nil {
				t.Fatal(err)
			}
			// The decoded context must be usable for a dominating write.
			st2, err := m.Put(st, got, []byte("v2"), WriteInfo{Server: "S1", Client: "c1"})
			if err != nil {
				t.Fatal(err)
			}
			if got := valueSet(m, st2); !reflect.DeepEqual(got, []string{"v2"}) {
				t.Fatalf("decoded context did not dominate: %v", got)
			}
		})
	}
}

func TestPutRejectsForeignContext(t *testing.T) {
	type bogus struct{}
	for _, m := range all() {
		if _, err := m.Put(m.NewState(), bogus{}, []byte("v"), WriteInfo{Server: "S1", Client: "c1"}); err == nil {
			t.Errorf("%s: expected ErrBadContext", m.Name())
		}
	}
}

func TestForeignStatePanics(t *testing.T) {
	m := NewDVV()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on foreign state")
		}
	}()
	m.Read(VVState(nil)) // a clientvv-shaped state handed to dvv
}

// TestMechanismsArePure pins the contract the storage engines rely on to
// hand out their installed states without copying them: Put (with a
// fresh, a stale and a dominated context) and Sync leave every input
// state and context byte-for-byte as it was.
func TestMechanismsArePure(t *testing.T) {
	for _, m := range append(all(), NewPrunedClientVV(1)) {
		t.Run(m.Name(), func(t *testing.T) {
			// A pruning mechanism only stores tags within its cap, so its
			// inputs come from the unpruned client-VV mechanism: the wider
			// tags a peer with a larger cap would send, which give pruning
			// something to cut.
			b := m
			if _, ok := m.(interface{ Cap() int }); ok {
				b = NewClientVV()
			}
			put := func(st State, ctx Context, val string, srv, cli dot.ID) State {
				t.Helper()
				ns, err := b.Put(st, ctx, []byte(val), WriteInfo{Server: srv, Client: cli})
				if err != nil {
					t.Fatal(err)
				}
				return ns
			}
			// Ten clients chain writes through S1, so a VV tag names ten
			// clients; dominated is the context c5 read before its write.
			chain := b.NewState()
			var dominated Context
			for i := 0; i < 10; i++ {
				if i == 5 {
					dominated = b.Read(chain).Ctx
				}
				chain = put(chain, b.Read(chain).Ctx, fmt.Sprintf("v%d", i), "S1", dot.ID(fmt.Sprintf("c%d", i)))
			}
			stale := b.Read(chain).Ctx
			st := put(chain, b.EmptyContext(), "rival", "S2", "w")
			fresh := b.Read(st).Ctx
			other := put(chain, stale, "other", "S2", "c0")

			states := []State{chain, st, other}
			ctxs := []Context{dominated, stale, fresh, m.EmptyContext()}
			encodeInputs := func() [][]byte {
				out := make([][]byte, 0, len(states)+len(ctxs))
				for _, x := range states {
					w := codec.NewWriter(64)
					m.EncodeState(w, x)
					out = append(out, w.Bytes())
				}
				for _, c := range ctxs {
					w := codec.NewWriter(64)
					m.EncodeContext(w, c)
					out = append(out, w.Bytes())
				}
				return out
			}
			before := encodeInputs()
			for _, x := range states {
				for _, c := range ctxs {
					for _, cli := range []dot.ID{"c5", "c0", "w"} {
						if _, err := m.Put(x, c, []byte("new"), WriteInfo{Server: "S1", Client: cli}); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, y := range states {
					m.Sync(x, y)
				}
			}
			after := encodeInputs()
			for i := range before {
				if !bytes.Equal(before[i], after[i]) {
					t.Errorf("input %d changed: %x -> %x", i, before[i], after[i])
				}
			}
		})
	}
}

func TestSyncIdempotentAndCommutativeOnValues(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, m := range all() {
		t.Run(m.Name(), func(t *testing.T) {
			// Build two replica states from a shared history.
			a, b := m.NewState(), m.NewState()
			var err error
			a, err = m.Put(a, m.EmptyContext(), []byte("x"), WriteInfo{Server: "S1", Client: "c1"})
			if err != nil {
				t.Fatal(err)
			}
			b = m.Sync(b, a)
			for i := 0; i < 20; i++ {
				val := []byte(fmt.Sprintf("v%d", i))
				if r.Intn(2) == 0 {
					a, _ = m.Put(a, m.Read(a).Ctx, val, WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", r.Intn(3)))})
				} else {
					b, _ = m.Put(b, m.Read(b).Ctx, val, WriteInfo{Server: "S2", Client: dot.ID(fmt.Sprintf("c%d", r.Intn(3)))})
				}
			}
			ab := m.Sync(a, b)
			ba := m.Sync(b, a)
			if !reflect.DeepEqual(valueSet(m, ab), valueSet(m, ba)) {
				t.Fatalf("sync not commutative on values: %v vs %v", valueSet(m, ab), valueSet(m, ba))
			}
			aa := m.Sync(ab, ab)
			if !reflect.DeepEqual(valueSet(m, aa), valueSet(m, ab)) {
				t.Fatalf("sync not idempotent on values")
			}
		})
	}
}

func TestMetadataGrowthShapes(t *testing.T) {
	// The paper's headline size claim, measured: after K clients write
	// through 3 servers, client-VV metadata grows with K while DVV stays
	// bounded by the server count.
	servers := []dot.ID{"S1", "S2", "S3"}
	grow := func(m Mechanism, clients int) int {
		st := m.NewState()
		for c := 0; c < clients; c++ {
			ctx := m.Read(st).Ctx
			st, _ = m.Put(st, ctx, []byte("v"), WriteInfo{
				Server: servers[c%len(servers)],
				Client: dot.ID(fmt.Sprintf("client-%03d", c)),
			})
		}
		return m.MetadataBytes(st)
	}
	dvvSmall, dvvBig := grow(NewDVV(), 8), grow(NewDVV(), 128)
	cvSmall, cvBig := grow(NewClientVV(), 8), grow(NewClientVV(), 128)
	if cvBig <= cvSmall {
		t.Fatalf("client-VV metadata did not grow: %d -> %d", cvSmall, cvBig)
	}
	if dvvBig > 2*dvvSmall {
		t.Fatalf("DVV metadata grew with clients: %d -> %d", dvvSmall, dvvBig)
	}
	if cvBig < 4*dvvBig {
		t.Fatalf("expected client-VV ≫ DVV at 128 clients: clientvv=%d dvv=%d", cvBig, dvvBig)
	}
}

func TestPrunedCapHolds(t *testing.T) {
	m := NewPrunedClientVV(4).(prunedClientVV)
	st := m.NewState()
	for c := 0; c < 40; c++ {
		ctx := m.Read(st).Ctx
		st, _ = m.Put(st, ctx, []byte("v"), WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%02d", c))})
	}
	for _, v := range mustState[VVState](m.Name(), st) {
		if v.Tag.Len() > m.Cap() {
			t.Fatalf("tag exceeds cap: %v", v.Tag)
		}
	}
}

func TestPrunedClientVVDivergesFromExact(t *testing.T) {
	// C4's mechanism check, with the canonical anomaly flow: pruning a
	// stored tag shrinks the read context derived from it; a client that
	// writes through a stale replica with that shrunken context fails to
	// discard siblings it has actually seen — they come back as false
	// concurrency. The same trace under exact client-VV converges to one
	// version.
	run := func(m Mechanism) []string {
		a, b := m.NewState(), m.NewState()
		// Three blind writers at replica A.
		for _, c := range []string{"cx", "cy", "cz"} {
			a, _ = m.Put(a, m.EmptyContext(), []byte("v-"+c), WriteInfo{Server: "SA", Client: dot.ID(c)})
		}
		// Replica B receives the three siblings, then stops syncing.
		b = m.Sync(b, a)
		// cr reads everything at A and overwrites: its tag has 4 client
		// entries — beyond the pruning cap.
		a, _ = m.Put(a, m.Read(a).Ctx, []byte("v-cr"), WriteInfo{Server: "SA", Client: "cr"})
		// cs reads at A (context derived from the possibly-pruned tag),
		// writes at the stale replica B.
		ctx := m.Read(a).Ctx
		b, _ = m.Put(b, ctx, []byte("v-cs"), WriteInfo{Server: "SB", Client: "cs"})
		// Anti-entropy merges the replicas.
		return valueSet(m, m.Sync(a, b))
	}
	exact := run(NewClientVV())
	if !reflect.DeepEqual(exact, []string{"v-cs"}) {
		t.Fatalf("exact client-VV should converge to v-cs: %v", exact)
	}
	pruned := run(NewPrunedClientVV(2))
	if reflect.DeepEqual(pruned, exact) {
		t.Fatal("expected pruning anomalies, sibling sets identical")
	}
	if len(pruned) <= 1 {
		t.Fatalf("expected resurrected siblings under pruning: %v", pruned)
	}
}

func TestClientVVSessionOrderAndCrossClientConcurrency(t *testing.T) {
	m := NewClientVV()
	a := m.NewState()
	// c1 writes, reads its own write (session discipline), writes again:
	// the second write dominates the first.
	a, _ = m.Put(a, m.EmptyContext(), []byte("v1"), WriteInfo{Server: "S1", Client: "c1"})
	ctx := m.Read(a).Ctx
	a, _ = m.Put(a, ctx, []byte("v2"), WriteInfo{Server: "S1", Client: "c1"})
	if got := valueSet(m, a); !reflect.DeepEqual(got, []string{"v2"}) {
		t.Fatalf("session write did not dominate: %v", got)
	}
	// Two *different* clients writing with the same context are
	// concurrent: both survive, even across coordinators.
	b := m.NewState()
	b = m.Sync(b, a)
	ctx2 := m.Read(a).Ctx
	a, _ = m.Put(a, ctx2, []byte("v3"), WriteInfo{Server: "S1", Client: "c2"})
	b, _ = m.Put(b, ctx2, []byte("v4"), WriteInfo{Server: "S2", Client: "c3"})
	merged := m.Sync(a, b)
	if got := valueSet(m, merged); !reflect.DeepEqual(got, []string{"v3", "v4"}) {
		t.Fatalf("merged = %v, want concurrent v3,v4", got)
	}
}

func TestDecodeStateGarbageNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, m := range all() {
		for i := 0; i < 500; i++ {
			b := make([]byte, r.Intn(48))
			r.Read(b)
			rd := codec.NewReader(b)
			_, _ = m.DecodeState(rd)
			rd2 := codec.NewReader(b)
			_, _ = m.DecodeContext(rd2)
		}
	}
}
