package sim

import (
	"testing"

	"repro/internal/core"
)

// TestChurnNoLostAckedWrites is the elasticity acceptance gate: with
// continuous client writes through one join and one leave, the oracle
// must report zero lost acknowledged writes, zero false conflicts and a
// fully drained hint backlog. Run under -race in CI.
func TestChurnNoLostAckedWrites(t *testing.T) {
	cfg := DefaultChurnConfig()
	if testing.Short() {
		cfg.Clients, cfg.WritesPerClient = 4, 20
	}
	results, table, err := RunChurn(cfg, core.NewDVV())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", table.String())
	for _, r := range results {
		if r.AckedWrites == 0 {
			t.Fatalf("%s: no writes acknowledged", r.Mechanism)
		}
		if r.Incomplete > 0 {
			t.Fatalf("%s: %d writes never acknowledged within the retry limit", r.Mechanism, r.Incomplete)
		}
		if r.Lost != 0 {
			t.Fatalf("%s: %d acknowledged writes lost", r.Mechanism, r.Lost)
		}
		if r.FalseConflicts != 0 {
			t.Fatalf("%s: %d false conflicts", r.Mechanism, r.FalseConflicts)
		}
		if r.PendingHints != 0 {
			t.Fatalf("%s: %d hints still pending after drain", r.Mechanism, r.PendingHints)
		}
		if r.Joined == "" || r.Left == "" {
			t.Fatalf("%s: churn events missing: %+v", r.Mechanism, r)
		}
		// Join and leave both stream re-owned keys in repl.batch frames.
		if r.HandoffKeys == 0 {
			t.Fatalf("%s: churn moved no keys through handoff", r.Mechanism)
		}
	}
}

// TestChurnTableShape pins the report columns the CLI prints.
func TestChurnTableShape(t *testing.T) {
	cfg := ChurnConfig{
		Nodes: 4, N: 3, R: 2, W: 2,
		Clients: 2, WritesPerClient: 6, RetryLimit: 50,
	}
	results, table, err := RunChurn(cfg, core.NewDVVSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(table.Rows) != 1 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	if len(table.Headers) != 11 {
		t.Fatalf("headers = %v", table.Headers)
	}
}
