package sim

import (
	"testing"
	"time"
)

// TestOverloadBrownout is the E7 acceptance gate: under open-loop load
// at 2x measured capacity with one fsync-stalled replica, the protected
// configuration sustains goodput >= 70% of capacity with bounded queue
// delay and zero lost acked writes, the mean replica-RPC cost to the
// stalled peer stays << Config.Timeout, and the retry budget keeps client
// retries <= 10% of issued requests — while the unprotected arm's p99
// collapses toward the RPC timeout.
func TestOverloadBrownout(t *testing.T) {
	if testing.Short() {
		t.Skip("E7 runs multi-second load phases")
	}
	cfg := DefaultOverloadConfig()
	results, table, err := RunOverload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", table.String())
	if len(results) != 2 {
		t.Fatalf("want 2 arms, got %d", len(results))
	}
	for _, r := range results {
		name := "unprotected"
		if r.Protected {
			name = "protected"
		}
		for _, v := range r.Violations(cfg) {
			t.Errorf("%s arm: %s", name, v)
		}
	}

	prot := results[0]
	if !prot.Protected {
		t.Fatal("first arm should be the protected one")
	}
	// The admission controller must honour the CoDel contract, not
	// merely be configured: whenever queue sojourn exceeded the target,
	// it must have shed. (Whether the queue
	// builds at all depends on machine speed: with client ejection
	// steering load off the victim, a fast run can bound queue delay
	// without ever needing to shed, which is the controller working,
	// not idling.)
	var shed uint64
	var qp99 int64
	for _, p := range prot.Phases {
		shed += p.Shed
		if d := int64(p.QueueDelayP99); d > qp99 {
			qp99 = d
		}
	}
	if qp99 > int64(cfg.QueueTarget) && shed == 0 {
		t.Errorf("queue delay p99 %v exceeded target %v but admission never shed", time.Duration(qp99), cfg.QueueTarget)
	}
	if prot.Issued == 0 {
		t.Error("retry budget saw no issued requests")
	}
}
