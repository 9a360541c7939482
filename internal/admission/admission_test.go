package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestIdleNeverSheds(t *testing.T) {
	c := New(Config{MaxInFlight: 1, QueueTarget: time.Millisecond})
	for i := 0; i < 1000; i++ {
		release, err := c.Acquire(context.Background())
		if err != nil {
			t.Fatalf("idle acquire %d shed: %v", i, err)
		}
		release()
	}
	st := c.Stats()
	if st.Shed != 0 {
		t.Fatalf("idle controller shed %d requests", st.Shed)
	}
	if st.Admitted != 1000 {
		t.Fatalf("admitted = %d, want 1000", st.Admitted)
	}
}

func TestShedsWhenSaturated(t *testing.T) {
	c := New(Config{MaxInFlight: 2, QueueTarget: 2 * time.Millisecond})
	// Occupy both slots.
	var holds []func()
	for i := 0; i < 2; i++ {
		release, err := c.Acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		holds = append(holds, release)
	}
	// Next acquires must shed within ~QueueTarget, not hang.
	start := time.Now()
	_, err := c.Acquire(context.Background())
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("saturated acquire: err = %v, want ErrOverload", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("shed took %v, want ~QueueTarget", d)
	}
	for _, h := range holds {
		h()
	}
	if st := c.Stats(); st.Shed == 0 {
		t.Fatal("expected shed counter > 0")
	}
}

func TestQueueOverflowShedsImmediately(t *testing.T) {
	c := New(Config{MaxInFlight: 1, QueueTarget: time.Second})
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// queuePerSlot waiters fill the queue.
	const waiters = queuePerSlot
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			r, err := c.Acquire(context.Background())
			if err == nil {
				r()
			}
			done <- err
		}()
	}
	// Wait for the waiters to be queued.
	for i := 0; i < 100 && c.Stats().Queued < waiters; i++ {
		time.Sleep(time.Millisecond)
	}
	// Queue is full: this one must shed immediately despite the long target.
	start := time.Now()
	_, err = c.Acquire(context.Background())
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("overflow acquire: err = %v, want ErrOverload", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("overflow shed took %v, want immediate", d)
	}
	release()
	for i := 0; i < waiters; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued waiter: %v", err)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	c := New(Config{MaxInFlight: 1, QueueTarget: time.Second})
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	_, err = c.Acquire(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: err = %v, want context.Canceled", err)
	}
}

func TestConcurrentStress(t *testing.T) {
	c := New(Config{MaxInFlight: 4, QueueTarget: time.Millisecond})
	var wg sync.WaitGroup
	var inFlight, maxSeen atomic.Int64
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				release, err := c.Acquire(context.Background())
				if err != nil {
					continue
				}
				cur := inFlight.Add(1)
				for {
					m := maxSeen.Load()
					if cur <= m || maxSeen.CompareAndSwap(m, cur) {
						break
					}
				}
				inFlight.Add(-1)
				release()
			}
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > 4 {
		t.Fatalf("observed %d in flight, limit 4", m)
	}
	st := c.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("leaked slots: %+v", st)
	}
	if st.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
}

func TestQueueDelayP99(t *testing.T) {
	c := New(Config{MaxInFlight: 1, QueueTarget: 50 * time.Millisecond})
	// All immediate admissions: p99 must be ~0.
	for i := 0; i < 10; i++ {
		r, err := c.Acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		r()
	}
	if p := c.Stats().QueueDelayP99; p > time.Millisecond {
		t.Fatalf("idle p99 = %v, want ~0", p)
	}
	// A queued admission records a nonzero sojourn.
	release, _ := c.Acquire(context.Background())
	done := make(chan struct{})
	go func() {
		r, err := c.Acquire(context.Background())
		if err == nil {
			r()
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	release()
	<-done
	if p := c.Stats().QueueDelayP99; p < 5*time.Millisecond {
		t.Fatalf("queued p99 = %v, want >= 5ms", p)
	}
}
