package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

func TestRetryBudgetTokenBucket(t *testing.T) {
	b := newRetryBudget(0) // default 10% earn rate, cap 10
	// The initial bucket allows a small burst...
	for i := 0; i < 10; i++ {
		if !b.spend() {
			t.Fatalf("burst retry %d denied with a full bucket", i)
		}
	}
	// ...then the bucket is dry: no retries without earning.
	if b.spend() {
		t.Fatal("retry allowed on an empty bucket")
	}
	// 10 issued requests at rate 0.1 earn exactly one retry token.
	for i := 0; i < 10; i++ {
		b.earn()
	}
	if !b.spend() {
		t.Fatal("retry denied after earning a full token")
	}
	if b.spend() {
		t.Fatal("second retry allowed after earning only one token")
	}
	if got := (RetryStats{Issued: b.issued, Retries: b.retries, Denied: b.denied}); got.Retries != 11 || got.Denied != 2 || got.Issued != 10 {
		t.Fatalf("counter mismatch: %+v", got)
	}
}

func TestRetryBudgetUnlimited(t *testing.T) {
	b := newRetryBudget(-1)
	for i := 0; i < 1000; i++ {
		if !b.spend() {
			t.Fatalf("unlimited budget denied retry %d", i)
		}
	}
}

// TestClientRetriesBounded drives clients against a cluster whose sole
// member is unreachable, and asserts the budget holds retries to ~10% of
// issued requests instead of ClientRetries x issued.
func TestClientRetriesBounded(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLoopback(), 1)
	t.Cleanup(func() { chaos.Close() })
	c, err := New(Config{
		Mech: core.NewDVV(), Nodes: 1, N: 1, R: 1, W: 1,
		Transport:     chaos,
		Timeout:       20 * time.Millisecond,
		ClientRetries: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Sever the client's only path; every attempt now fails.
	id := c.Nodes[0].ID()
	cl := c.NewClient("budgeted", RouteCoordinator)
	chaos.SetLink(cl.ID, id, transport.LinkFaults{DropRate: 1})

	ctx := context.Background()
	const issued = 200
	for i := 0; i < issued; i++ {
		if err := cl.Put(ctx, "k", []byte("v")); err == nil {
			t.Fatal("put succeeded through a fully dropped link")
		}
	}
	st := c.RetryStats()
	if st.Issued != issued {
		t.Fatalf("issued = %d, want %d", st.Issued, issued)
	}
	// Initial bucket (10) + 10% earn over 200 issued = at most ~30.
	if max := uint64(issued/10 + 10); st.Retries > max {
		t.Fatalf("retries = %d, want <= %d (budget must bound amplification)", st.Retries, max)
	}
	if st.Denied == 0 {
		t.Fatal("expected some retries to be denied by the exhausted budget")
	}
}

// TestClientRetryRecovers proves a budgeted retry actually retries: on a
// lossy (but not severed) link, puts that fail their first attempt are
// recovered by budgeted retries and the caller never sees the transient
// errors. Deterministic: the chaos RNG is seeded and the client issues
// sequentially.
func TestClientRetryRecovers(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLoopback(), 2)
	t.Cleanup(func() { chaos.Close() })
	c, err := New(Config{
		Mech: core.NewDVV(), Nodes: 1, N: 1, R: 1, W: 1,
		Transport:     chaos,
		Timeout:       50 * time.Millisecond,
		ClientRetries: 5,
		// A generous earn rate: this test is about recovery, not about
		// the bound (TestClientRetriesBounded covers that).
		RetryBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := c.Nodes[0].ID()
	cl := c.NewClient("recovering", RouteCoordinator)
	chaos.SetLink(cl.ID, id, transport.LinkFaults{DropRate: 0.5})

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := cl.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatalf("put %d not recovered by retries: %v", i, err)
		}
	}
	if st := c.RetryStats(); st.Retries == 0 {
		t.Fatal("expected at least one budgeted retry on a 50%-lossy link")
	}
}
