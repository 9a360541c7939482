package storage

// Recovery tests for the durable engine: what a data directory holds after
// a close, a crash or an interrupted checkpoint comes back intact, and a
// recovered replica never reissues a dot.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
)

// openTemp opens dir through Open with the default (memory) policy.
func openTemp(t *testing.T, m core.Mechanism, dir string, fsync bool) *Tiered {
	t.Helper()
	e, err := Open(m, Options{Dir: dir, Fsync: fsync})
	if err != nil {
		t.Fatal(err)
	}
	return e.(*Tiered)
}

func TestOpenEmptyDirAndReopen(t *testing.T) {
	m := core.NewDVV()
	dir := t.TempDir()
	s := openTemp(t, m, dir, true)
	if s.wal == nil || s.dir != dir {
		t.Fatalf("wal=%v dir=%q, want a WAL in %q", s.wal, s.dir, dir)
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key-%02d", i)
		if _, err := s.Put(k, m.EmptyContext(), []byte(fmt.Sprintf("v%d", i)),
			core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTemp(t, m, dir, true)
	defer r.Close()
	if got := r.Recovery(); got.WALRecords != 30 {
		t.Fatalf("recovery = %+v, want 30 WAL records", got)
	}
	if r.Len() != 30 {
		t.Fatalf("recovered %d keys, want 30", r.Len())
	}
	for _, k := range r.Keys() {
		a, _ := s.Get(k)
		b, _ := r.Get(k)
		if !reflect.DeepEqual(vals(a), vals(b)) {
			t.Fatalf("key %s: %v != %v", k, vals(b), vals(a))
		}
	}
	// Open compacted: the directory now has segments and an empty log,
	// so a third open recovers from the segments alone.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openTemp(t, m, dir, true)
	defer r2.Close()
	if got := r2.Recovery(); got.SnapshotKeys != 30 || got.WALRecords != 0 {
		t.Fatalf("post-compaction recovery = %+v, want 30 segment keys, 0 WAL records", got)
	}
}

func TestRecoveredDotCounterNeverRegresses(t *testing.T) {
	// The paper-correctness hazard: a replica that crashes and recovers
	// must not mint a dot it already issued. Put twice (counter reaches 2),
	// crash-reopen, put again: the new dot must be (S1, 3), not a reissue.
	m := core.NewDVV()
	dir := t.TempDir()
	s := openTemp(t, m, dir, true)
	rr, err := s.Put("k", m.EmptyContext(), []byte("v1"), core.WriteInfo{Server: "S1", Client: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("k", rr.Ctx, []byte("v2"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openTemp(t, m, dir, true)
	defer r.Close()
	got, ok := r.Get("k")
	if !ok {
		t.Fatal("key lost")
	}
	after, err := r.Put("k", m.EmptyContext(), []byte("v3"), core.WriteInfo{Server: "S1", Client: "c2"})
	if err != nil {
		t.Fatal(err)
	}
	_ = got
	st, _ := r.Snapshot("k")
	maxCounter := uint64(0)
	for _, v := range st.(core.DVVState) {
		if v.Clock.D.Node == dot.ID("S1") && v.Clock.D.Counter > maxCounter {
			maxCounter = v.Clock.D.Counter
		}
	}
	if maxCounter != 3 {
		t.Fatalf("post-recovery dot counter = %d, want 3 (no reissue)", maxCounter)
	}
	// The blind write must NOT have silently destroyed v2: it is a
	// concurrent sibling.
	found := false
	for _, v := range after.Values {
		if string(v) == "v2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sibling v2 lost after recovery: %v", vals(after))
	}
}

func TestCrashFailpointRecoversCommittedPrefix(t *testing.T) {
	// Arm the failpoint mid-workload: every put acked before the tear must
	// survive reopen; the torn put must fail and leave memory untouched.
	m := core.NewDVV()
	dir := t.TempDir()
	s := openTemp(t, m, dir, true)
	var acked []string
	i := 0
	put := func() error {
		k := fmt.Sprintf("key-%03d", i)
		_, err := s.Put(k, m.EmptyContext(), []byte("v"), core.WriteInfo{Server: "S1", Client: "c1"})
		if err == nil {
			acked = append(acked, k)
		}
		i++
		return err
	}
	for j := 0; j < 10; j++ {
		if err := put(); err != nil {
			t.Fatal(err)
		}
	}
	crashed := make(chan struct{})
	s.FailWALAt(s.WALSize()+13, func() { close(crashed) })
	if err := put(); !errors.Is(err, ErrWALCrashed) {
		t.Fatalf("put across failpoint = %v, want ErrWALCrashed", err)
	}
	<-crashed
	// The torn write must not be visible in memory either: memory never
	// runs ahead of the log.
	if _, ok := s.Get("key-010"); ok {
		t.Fatal("unacked torn write visible in memory")
	}
	if err := put(); !errors.Is(err, ErrWALCrashed) {
		t.Fatal("store kept accepting writes after crash")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint on crashed store must fail")
	}
	s.Close()

	r := openTemp(t, m, dir, true)
	defer r.Close()
	if r.Recovery().TornBytes == 0 {
		t.Fatal("expected torn bytes at the crash point")
	}
	for _, k := range acked {
		if _, ok := r.Get(k); !ok {
			t.Fatalf("acked key %s lost", k)
		}
	}
	if r.Len() != len(acked) {
		t.Fatalf("recovered %d keys, want %d", r.Len(), len(acked))
	}
}

func TestCheckpointCompactsAndSurvivesConcurrentWrites(t *testing.T) {
	m := core.NewDVV()
	dir := t.TempDir()
	s := openTemp(t, m, dir, false)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Concurrent writers spanning multiple checkpoints: nothing acked may
	// be lost across the final reopen.
	var mu sync.Mutex
	ackedVals := map[string]string{}
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("g%d-key-%03d", g, i%25)
				v := fmt.Sprintf("g%d-val-%05d", g, i)
				rr, _ := s.Get(k)
				if _, err := s.Put(k, rr.Ctx, []byte(v), core.WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", g))}); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ackedVals[k] = v
				mu.Unlock()
			}
		}()
	}
	for c := 0; c < 5; c++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// One final checkpoint, then verify the WAL was actually truncated and
	// no stray files remain.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.wal.SegmentSize() != 0 {
		t.Fatalf("wal segment size after checkpoint = %d", s.wal.SegmentSize())
	}
	if _, err := os.Stat(filepath.Join(dir, walPrevName)); !os.IsNotExist(err) {
		t.Fatalf("retired segment still present: %v", err)
	}
	s.Close()

	r := openTemp(t, m, dir, false)
	defer r.Close()
	mu.Lock()
	defer mu.Unlock()
	for k, v := range ackedVals {
		rr, ok := r.Get(k)
		if !ok {
			t.Fatalf("key %s lost across checkpointed reopen", k)
		}
		found := false
		for _, got := range rr.Values {
			if string(got) == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("key %s: last acked %q not among %v", k, v, vals(rr))
		}
	}
}

func TestSyncKeyNoOpMergeSkipsWAL(t *testing.T) {
	m := core.NewDVV()
	dir := t.TempDir()
	s := openTemp(t, m, dir, false)
	defer s.Close()
	if _, err := s.Put("k", m.EmptyContext(), []byte("v"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Snapshot("k")
	before := s.WALSize()
	// Merging a state the store already covers must not grow the log.
	if err := s.SyncKey("k", st); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() != before {
		t.Fatalf("no-op merge grew the WAL: %d -> %d", before, s.WALSize())
	}
	// A genuinely new state must.
	s2 := New(m)
	_, _ = s2.Put("k", m.EmptyContext(), []byte("other"), core.WriteInfo{Server: "S2", Client: "c2"})
	other, _ := s2.Snapshot("k")
	if err := s.SyncKey("k", other); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() == before {
		t.Fatal("real merge did not reach the WAL")
	}
}

func TestOpenAllMechanisms(t *testing.T) {
	// Recovery must round-trip every registered mechanism's state.
	for name, m := range core.Registry() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTemp(t, m, dir, false)
			for i := 0; i < 10; i++ {
				k := fmt.Sprintf("key-%d", i)
				if _, err := s.Put(k, m.EmptyContext(), []byte(fmt.Sprintf("v%d", i)),
					core.WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", i%3))}); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			r := openTemp(t, m, dir, false)
			defer r.Close()
			if !reflect.DeepEqual(r.Keys(), s.Keys()) {
				t.Fatalf("keys = %v, want %v", r.Keys(), s.Keys())
			}
			for _, k := range s.Keys() {
				a, _ := s.Get(k)
				b, _ := r.Get(k)
				if !reflect.DeepEqual(vals(a), vals(b)) {
					t.Fatalf("key %s: %v != %v", k, vals(b), vals(a))
				}
			}
		})
	}
}

func TestOpenRecoversInterruptedCheckpoint(t *testing.T) {
	// Simulate a crash between a checkpoint's rotation and its completion:
	// a wal.prev left on disk must still be replayed (then cleaned up by
	// Open's compaction).
	m := core.NewDVV()
	dir := t.TempDir()
	s := openTemp(t, m, dir, false)
	if _, err := s.Put("k", m.EmptyContext(), []byte("v"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Hand-craft the interrupted state: the log becomes the retired
	// segment (a fresh Open spilled nothing, so no segment holds it).
	if err := os.Rename(filepath.Join(dir, walName), filepath.Join(dir, walPrevName)); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(filepath.Join(dir, walPrevName), false)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(m)
	if _, err := s2.Put("k2", m.EmptyContext(), []byte("v2"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
		t.Fatal(err)
	}
	pw := newRecordPayload(t, s2, "k2")
	if err := w.Append(pw); err != nil {
		t.Fatal(err)
	}
	w.Close()

	r := openTemp(t, m, dir, false)
	defer r.Close()
	if _, ok := r.Get("k"); !ok {
		t.Fatal("pre-checkpoint record not recovered from retired segment")
	}
	if _, ok := r.Get("k2"); !ok {
		t.Fatal("record in retired segment not recovered")
	}
	if _, err := os.Stat(filepath.Join(dir, walPrevName)); !os.IsNotExist(err) {
		t.Fatal("retired segment not cleaned up after recovery")
	}
}

// TestOpenRefusesDoubleOpen: the directory flock must keep a second store
// (same process or another) from appending to the same wal.log.
func TestOpenRefusesDoubleOpen(t *testing.T) {
	m := core.NewDVV()
	dir := t.TempDir()
	s := openTemp(t, m, dir, false)
	if _, err := Open(m, Options{Dir: dir}); err == nil {
		t.Fatal("second Open on a live data dir succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(m, Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

// TestCheckpointPreservesLeftoverRetiredSegment is the regression test
// for the double-interrupted-checkpoint loss: when a failed checkpoint
// leaves wal.prev behind, the next Checkpoint must NOT rotate the active
// log over it — at that moment wal.prev may be the only durable copy of
// acked writes, and overwriting it before the spills covering it are
// durable would lose them if the process died again mid-checkpoint.
func TestCheckpointPreservesLeftoverRetiredSegment(t *testing.T) {
	m := core.NewDVV()
	dir := t.TempDir()
	s := openTemp(t, m, dir, false)
	if _, err := s.Put("key-a", m.EmptyContext(), []byte("va"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
		t.Fatal(err)
	}
	// Simulate a checkpoint that failed right after rotation: key-a's
	// record now lives only in wal.prev (nothing was spilled).
	prev := filepath.Join(dir, walPrevName)
	if err := s.wal.rotate(prev); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("key-b", m.EmptyContext(), []byte("vb"), core.WriteInfo{Server: "S1", Client: "c1"}); err != nil {
		t.Fatal(err)
	}
	segBefore := s.wal.SegmentSize()
	if segBefore == 0 {
		t.Fatal("setup: key-b's record should be in the active segment")
	}
	// The recovery checkpoint must skip rotation (wal.prev untouched until
	// the spills covering it are durable), then drop it.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(prev); !os.IsNotExist(err) {
		t.Fatal("retired segment not dropped after the spills landed")
	}
	if s.wal.SegmentSize() != segBefore {
		t.Fatalf("active segment was rotated (size %d -> %d) while a retired segment existed", segBefore, s.wal.SegmentSize())
	}
	s.Close()
	r := openTemp(t, m, dir, false)
	defer r.Close()
	for _, k := range []string{"key-a", "key-b"} {
		if _, ok := r.Get(k); !ok {
			t.Fatalf("key %s lost across the recovered checkpoint", k)
		}
	}
}

// TestSaveLoadRoundTrip: every mechanism's multi-sibling states survive
// the full disk round trip — Checkpoint spills them to segments, and a
// reopen that replays no WAL serves them back cold from the segments.
func TestSaveLoadRoundTrip(t *testing.T) {
	for name, m := range core.Registry() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTemp(t, m, dir, false)
			for i := 0; i < 5; i++ {
				k := fmt.Sprintf("key-%d", i)
				_, _ = s.Put(k, m.EmptyContext(), []byte(fmt.Sprintf("v%d", i)), core.WriteInfo{Server: "S1", Client: "c1"})
				_, _ = s.Put(k, m.EmptyContext(), []byte(fmt.Sprintf("w%d", i)), core.WriteInfo{Server: "S2", Client: "c2"})
			}
			want := map[string][]string{}
			for _, k := range s.Keys() {
				rr, _ := s.Get(k)
				want[k] = vals(rr)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s.Close()

			r := openTemp(t, m, dir, false)
			defer r.Close()
			if got := r.Recovery(); got.WALRecords != 0 || got.SnapshotKeys != len(want) {
				t.Fatalf("recovery = %+v, want %d segment keys and no WAL records", got, len(want))
			}
			if !reflect.DeepEqual(r.Keys(), s.Keys()) {
				t.Fatalf("keys = %v, want %v", r.Keys(), s.Keys())
			}
			for k, w := range want {
				rr, _ := r.Get(k)
				if !reflect.DeepEqual(vals(rr), w) {
					t.Fatalf("key %s: %v != %v", k, vals(rr), w)
				}
			}
			if r.Stats().Faults != uint64(len(want)) {
				t.Fatalf("faults = %d, want every key read back from its segment", r.Stats().Faults)
			}
		})
	}
}

// TestSaveLoadThroughFile: a restored engine keeps operating — a context
// read from the recovered state dominates every restored sibling.
func TestSaveLoadThroughFile(t *testing.T) {
	m := core.NewDVV()
	dir := t.TempDir()
	s := openTemp(t, m, dir, true)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%02d", i)
		if _, err := s.Put(key, m.EmptyContext(), []byte(fmt.Sprintf("v%d", i)),
			core.WriteInfo{Server: "S1", Client: dot.ID(fmt.Sprintf("c%d", i%4))}); err != nil {
			t.Fatal(err)
		}
		// Fork a sibling on every third key.
		if i%3 == 0 {
			if _, err := s.Put(key, m.EmptyContext(), []byte("fork"),
				core.WriteInfo{Server: "S2", Client: "forker"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	restored := openTemp(t, m, dir, true)
	defer restored.Close()
	if !reflect.DeepEqual(restored.Keys(), s.Keys()) {
		t.Fatalf("keys = %v, want %v", restored.Keys(), s.Keys())
	}
	rr, _ := restored.Get("key-00")
	if !reflect.DeepEqual(vals(rr), []string{"fork", "v0"}) {
		t.Fatalf("restored key-00 = %v", vals(rr))
	}
	after, err := restored.Put("key-00", rr.Ctx, []byte("post-restore"),
		core.WriteInfo{Server: "S1", Client: "c9"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals(after), []string{"post-restore"}) {
		t.Fatalf("post-restore put = %v", vals(after))
	}
}

// TestOpenRefusesLegacySnapshot: a directory holding a whole-store
// snapshot.dat (written by an earlier map engine) must not open empty over
// it, under either policy, and the error must name the file.
func TestOpenRefusesLegacySnapshot(t *testing.T) {
	for _, kind := range []string{EngineMemory, EngineTiered} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "snapshot.dat"), []byte{0, 0, 0, 1, 0}, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := Open(core.NewDVV(), Options{Engine: kind, Dir: dir})
			if err == nil {
				e.Close()
				t.Fatal("Open over a legacy snapshot.dat succeeded")
			}
			if !strings.Contains(err.Error(), "snapshot.dat") {
				t.Fatalf("error %q does not name snapshot.dat", err)
			}
		})
	}
}

// newRecordPayload builds the WAL record payload (key + state) for a key
// held by a scratch store.
func newRecordPayload(t *testing.T, s *Store, key string) []byte {
	t.Helper()
	st, ok := s.Snapshot(key)
	if !ok {
		t.Fatalf("no key %s", key)
	}
	w := codec.NewWriter(256)
	w.String(key)
	s.mech.EncodeState(w, st)
	return w.Bytes()
}
