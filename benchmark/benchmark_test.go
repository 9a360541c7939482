package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any goroutine running repository code is
// still alive after the workloads have torn their clusters down.
func TestMain(m *testing.M) { leakcheck.Main(m) }

func quickConfig(t *testing.T, s spec) runConfig {
	return runConfig{spec: s.quick(), seed: 1, window: time.Second, setups: 1,
		dataRoot: t.TempDir(), probeBudget: 10 * time.Millisecond}
}

// TestQuickWorkloads runs all four workloads in -quick mode, untraced and
// traced, and checks that each reports every metric BENCHMARK.json declares,
// passes its correctness gate and, on the closed loops, fails no operation.
func TestQuickWorkloads(t *testing.T) {
	decl, err := readDeclared(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(specs))
	}
	for _, w := range decl.Workloads {
		s, ok := specByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json declares unknown workload %q", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				cfg := quickConfig(t, s)
				cfg.trace = traced
				res, want, err := runOne(cfg, decl)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct {
					t.Errorf("traced=%v: correctness gate failed: %+v", traced, res.Check)
				}
				// An open loop drops ops when the machine (or a race-detector
				// build) cannot keep up with its rate; a closed loop has no
				// excuse for a failed op.
				if res.Failed != 0 && s.openRate == 0 {
					t.Errorf("traced=%v: %d of %d ops failed: %s", traced, res.Failed, res.Attempted, res.FirstError)
				}
				line, err := toContract(res, want)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics on the contract line, %d declared", traced, len(line.Metrics), len(want))
				}
				if traced && (res.Budget == nil || res.Budget.Put == nil || res.Budget.Put.CoordHandleUs <= 0) {
					t.Errorf("traced run produced no put budget: %+v", res.Budget)
				}
			}
		})
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		s = s.quick()
		a, err := generate(s, 2, 7, 5000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(s, 2, 7, 5000)
		c, _ := generate(s, 2, 8, 5000)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 gave two different op streams", s.name)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", s.name)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, id := range []uint32{1, 10001, 99999999} {
		got, ok := idOf(valueFor(id, 64))
		if !ok || got != id {
			t.Errorf("idOf(valueFor(%d)) = %d, %v", id, got, ok)
		}
	}
	if _, ok := idOf([]byte("not a benchmark value")); ok {
		t.Error("idOf accepted a foreign value")
	}
}

// TestGateRejectsLostAndResurrectedWrites feeds the checker a history and a
// final state with one acknowledged write dropped, then one replaced write
// still present.
func TestGateRejectsLostAndResurrectedWrites(t *testing.T) {
	st := &stream{keyNames: []string{"key-000000", "key-000001"}}
	log := &clientLog{
		acked:   []wrec{{0, 10}, {0, 11}, {1, 12}},
		covered: []wrec{{0, 10}}, // put 11 presented a context that had seen 10
	}
	clean := map[uint32][]uint32{0: {11}, 1: {12}}
	if v := newHistory(st, []*clientLog{log}, false).judge(clean); !v.ok() {
		t.Fatalf("clean history rejected: %+v", v)
	}
	lost := map[uint32][]uint32{0: {11}, 1: {}}
	if v := newHistory(st, []*clientLog{log}, false).judge(lost); v.Lost != 1 || v.ok() {
		t.Errorf("dropped acknowledged write not caught: %+v", v)
	}
	resurrected := map[uint32][]uint32{0: {10, 11}, 1: {12}}
	if v := newHistory(st, []*clientLog{log}, false).judge(resurrected); v.FalseConflicts != 1 || v.ok() {
		t.Errorf("replaced write still present not caught: %+v", v)
	}
	// A failed put may or may not have been applied: neither outcome is a
	// violation.
	log.doubtful = []wrec{{1, 13}, {1, 12}}
	for _, final := range []map[uint32][]uint32{{0: {11}, 1: {12}}, {0: {11}, 1: {13}}, {0: {11}, 1: {12, 13}}} {
		if v := newHistory(st, []*clientLog{log}, false).judge(final); !v.ok() {
			t.Errorf("doubtful put outcome %v rejected: %+v", final, v)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i)
	}
	if _, ok := merge(s).quantile(0.99); ok {
		t.Error("p99 of 1000 samples has only 9 beyond it and must not be reported")
	}
	if v, ok := merge(s, s[:100]).quantile(0.99); !ok || v < 980 {
		t.Errorf("p99 of 1100 samples = %d, %v", v, ok)
	}
}

func TestChildCoverCountsOverlapOnceAndClips(t *testing.T) {
	parent := &span{Start: 100, End: 200}
	kids := []*span{{Start: 90, End: 120}, {Start: 110, End: 150}, {Start: 180, End: 260}}
	if got := childCover(parent, kids); got != 70 {
		t.Errorf("childCover = %d, want 70 (100-150 and 180-200)", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	decl := &declared{EndToEnd: []declaredMetric{
		{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.1},
	}}
	doc := func(tput, p50, failedShare float64) string {
		d := suiteDoc{Workloads: map[string]*suiteCell{"mixed-mem": {EndToEnd: &result{Correct: true, Metrics: map[string]metric{
			"throughput_ops_s": {Value: tput}, "op_p50_us": {Value: p50}, "failed_share": {Value: failedShare}}}}}}
		raw, _ := json.Marshal(d)
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := doc(1000, 100, 0)
	for _, c := range []struct {
		name      string
		path      string
		regressed bool
		want      string
	}{
		{"same", doc(1020, 98, 0), false, "unchanged"},
		{"faster", doc(1200, 80, 0), false, "improved"},
		{"slower", doc(850, 100, 0), true, "regressed"},
		{"failing", doc(1000, 100, 0.01), true, "regressed"},
	} {
		var out bytes.Buffer
		regressed, err := runCompare(&out, decl, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: regressed=%v, output:\n%s", c.name, regressed, out.String())
		}
	}
}
