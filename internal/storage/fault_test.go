package storage

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// faultEngines runs fn under both residency policies with an injector
// attached via Options.Faults — the same surface the nemesis uses.
func faultEngines(t *testing.T, fn func(t *testing.T, e Engine, f *Faults, reopen func() Engine)) {
	t.Helper()
	for _, kind := range []string{EngineMemory, EngineTiered} {
		t.Run(kind, func(t *testing.T) {
			m := core.NewDVV()
			dir := t.TempDir()
			f := &Faults{}
			open := func() Engine {
				e, err := Open(m, Options{Engine: kind, Dir: dir, Faults: f})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			e := open()
			defer func() { e.Close() }()
			fn(t, e, f, func() Engine {
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				e = open()
				return e
			})
		})
	}
}

func TestFaultTransientAppendError(t *testing.T) {
	faultEngines(t, func(t *testing.T, e Engine, f *Faults, reopen func() Engine) {
		m := core.NewDVV()
		w := core.WriteInfo{Server: "S1", Client: "c1"}

		f.FailNextAppends(2)
		if _, err := e.Put("k", m.EmptyContext(), []byte("v1"), w); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("put during fault: %v", err)
		}
		// Write-ahead order: the failed put must not have installed.
		if _, ok := e.Get("k"); ok {
			t.Fatal("failed put is visible in memory")
		}
		if _, err := e.Put("k", m.EmptyContext(), []byte("v2"), w); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("second scheduled failure: %v", err)
		}
		// The fault is transient: the log is not wedged.
		if _, err := e.Put("k", m.EmptyContext(), []byte("v3"), w); err != nil {
			t.Fatalf("put after faults consumed: %v", err)
		}
		if got := f.Stats().FailedAppends; got != 2 {
			t.Fatalf("FailedAppends = %d, want 2", got)
		}

		// The surviving record is durable: it comes back after reopen.
		e = reopen()
		rr, ok := e.Get("k")
		if !ok || len(rr.Values) != 1 || string(rr.Values[0]) != "v3" {
			t.Fatalf("after reopen: ok=%v values=%q", ok, rr.Values)
		}
	})
}

func TestFaultFsyncStall(t *testing.T) {
	faultEngines(t, func(t *testing.T, e Engine, f *Faults, reopen func() Engine) {
		m := core.NewDVV()
		w := core.WriteInfo{Server: "S1", Client: "c1"}

		const stall = 15 * time.Millisecond
		f.StallFsync(stall)
		start := time.Now()
		if _, err := e.Put("k", m.EmptyContext(), []byte("v"), w); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el < stall {
			t.Fatalf("put took %v, want ≥ %v injected stall", el, stall)
		}
		if f.Stats().Stalls == 0 {
			t.Fatal("Stalls counter not bumped")
		}
		f.Clear()
		if _, err := e.Put("k2", m.EmptyContext(), []byte("v"), w); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFaultClearAndZeroValue(t *testing.T) {
	var f Faults
	if err := f.appendErr(); err != nil {
		t.Fatalf("zero-value injector should be inert: %v", err)
	}
	if d := f.stall(); d != 0 {
		t.Fatalf("zero-value stall = %v", d)
	}
	f.FailNextAppends(5)
	f.StallFsync(time.Second)
	f.Clear()
	if err := f.appendErr(); err != nil {
		t.Fatalf("after Clear: %v", err)
	}
	if d := f.stall(); d != 0 {
		t.Fatalf("after Clear stall = %v", d)
	}
}

// TestFaultDiskFull proves the ENOSPC shape on both engines: while the
// persistent disk-full fault is armed every write is refused with the
// typed ErrDiskFull, nothing half-installs (memory, log and dot counters
// untouched), reads keep serving the pre-fault state, and clearing the
// fault restores writes — all without a reopen.
func TestFaultDiskFull(t *testing.T) {
	faultEngines(t, func(t *testing.T, e Engine, f *Faults, reopen func() Engine) {
		m := core.NewDVV()
		w := core.WriteInfo{Server: "S1", Client: "c1"}

		if _, err := e.Put("k", m.EmptyContext(), []byte("before"), w); err != nil {
			t.Fatal(err)
		}
		preHash := e.KeyHash("k")

		f.FailWrites(true)
		for i := 0; i < 3; i++ {
			_, err := e.Put("k", m.EmptyContext(), []byte("during"), w)
			if !errors.Is(err, ErrDiskFull) {
				t.Fatalf("put %d on a full disk: %v (want ErrDiskFull)", i, err)
			}
			if !IsDiskFull(err) {
				t.Fatalf("IsDiskFull(%v) = false", err)
			}
		}
		// Persistent, not consumed: still full after three refusals.
		if _, err := e.Put("k2", m.EmptyContext(), []byte("x"), w); !errors.Is(err, ErrDiskFull) {
			t.Fatalf("disk-full fault was consumed: %v", err)
		}
		if got := f.Stats().FailedWrites; got != 4 {
			t.Fatalf("FailedWrites = %d, want 4", got)
		}
		// No half-installed state: reads serve exactly the pre-fault value.
		rr, ok := e.Get("k")
		if !ok || len(rr.Values) != 1 || string(rr.Values[0]) != "before" {
			t.Fatalf("read during disk-full: ok=%v values=%q", ok, rr.Values)
		}
		if e.KeyHash("k") != preHash {
			t.Fatal("refused writes mutated the key's state hash")
		}
		if _, ok := e.Get("k2"); ok {
			t.Fatal("refused put of a fresh key is visible")
		}

		// Space freed: writes resume, and the recovered write is durable.
		f.FailWrites(false)
		if _, err := e.Put("k", m.EmptyContext(), []byte("after"), w); err != nil {
			t.Fatalf("put after clearing disk-full: %v", err)
		}
		e = reopen()
		rr, ok = e.Get("k")
		if !ok {
			t.Fatal("key lost after reopen")
		}
		vals := map[string]bool{}
		for _, v := range rr.Values {
			vals[string(v)] = true
		}
		if !vals["after"] {
			t.Fatalf("post-recovery write not durable: %q", rr.Values)
		}
	})
}

func TestIsDiskFullFlattened(t *testing.T) {
	if !IsDiskFull(fmt.Errorf("node n01: %s", ErrDiskFull.Error())) {
		t.Fatal("flattened disk-full string not recognised")
	}
	if IsDiskFull(errors.New("some other error")) || IsDiskFull(nil) {
		t.Fatal("false positive")
	}
}
