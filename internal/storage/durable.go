// Durability: Open / Checkpoint / Close turn the sharded in-memory Store
// into a crash-safe engine. On-disk layout inside the data directory:
//
//	snapshot.dat  — the whole store in Save's framed format, written
//	                atomically (snapshot.tmp + rename + dir fsync)
//	wal.log       — the active write-ahead segment (see wal.go)
//	wal.prev      — the retired segment, present only between a
//	                checkpoint's rotation and its completion
//
// Every mutation appends its post-state to the WAL *before* installing it
// in memory, both steps under the key's shard lock. That single critical
// section is what makes checkpoints race-free without quiescing writers:
// when Checkpoint rotates the WAL and then walks the shards, any record
// that went to the retired segment was installed by a writer still holding
// (or having released) its shard lock, so the snapshot walk — which takes
// each shard lock — necessarily observes it. A record can only miss the
// snapshot if it landed in the *new* segment, which the checkpoint keeps.
//
// Recovery (Open) replays snapshot, then wal.prev, then wal.log, merging
// every record through the mechanism's Sync — a join, so replay is
// idempotent and order-insensitive: replaying a prefix twice, or a record
// that also made it into the snapshot, converges to the same state. A
// recovering replica therefore restarts with every acknowledged write and
// with per-key dot counters at least as high as any it ever issued — it
// cannot mint a duplicate dot (dots are minted from MaxDot over the
// recovered sibling sets).
package storage

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/codec"
	"repro/internal/core"
)

// Data-directory file names.
const (
	snapshotName    = "snapshot.dat"
	snapshotTmpName = "snapshot.tmp"
	walName         = "wal.log"
	walPrevName     = "wal.prev"
	lockName        = "LOCK"
)

// Options parameterises a durable engine.
type Options struct {
	// Engine selects the implementation: EngineMemory (default) or
	// EngineTiered. See Open.
	Engine string
	// Dir is the data directory (created if missing).
	Dir string
	// Shards is the lock-shard count (0 = DefaultShards).
	Shards int
	// MemBudget bounds the tiered engine's hot-cache bytes
	// (0 = DefaultMemBudget; ignored by the memory engine).
	MemBudget int64
	// Faults, when non-nil, attaches a schedulable transient disk-fault
	// injector (fsync stalls, bounded append failures) to the engine's
	// WAL at open — the nemesis experiments' slow-disk hook. See
	// fault.go; equivalent to calling InjectFaults after Open.
	Faults *Faults
	// Fsync makes every WAL group-commit batch fsync before the mutation
	// is acknowledged; off, appends are buffered writes and a crash can
	// lose the un-synced tail (never a torn half-state: replay still
	// recovers a clean record prefix).
	//
	// CAUTION: with Fsync off the lost tail can include writes that were
	// acked AND replicated, so a recovered replica's per-key dot counters
	// can regress below dots its peers already hold — its next write
	// re-mints such a dot with a different value, and Sync (which assumes
	// dots are globally unique) silently keeps one side. That is the
	// paper-correctness hazard the WAL exists to prevent; the E2 crash
	// oracle (zero lost acked writes, zero duplicate dots) is only
	// guaranteed with Fsync on. Leave it on unless the workload can
	// tolerate post-crash causality corruption, not just lost writes.
	Fsync bool
}

// RecoveryInfo describes what Open found on disk.
type RecoveryInfo struct {
	SnapshotKeys int   // keys loaded from snapshot.dat
	WALRecords   int   // records replayed from wal.prev + wal.log
	TornBytes    int64 // torn-tail bytes discarded (WAL segments + snapshot)
}

// openStore creates (or recovers) the durable memory engine in dir:
// snapshot and WAL segments are replayed through the mechanism's Sync
// merge, any torn WAL tail is truncated, and a fresh checkpoint compacts
// the recovered state before the store starts serving, so the directory is
// always left in the canonical snapshot-plus-empty-log shape.
func openStore(mech core.Mechanism, o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("storage: open: empty data dir")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", o.Dir, err)
	}
	shards := o.Shards
	if shards < 1 {
		shards = DefaultShards
	}
	s := NewSharded(mech, shards)
	s.dir = o.Dir

	lf, err := lockDir(o.Dir)
	if err != nil {
		return nil, err
	}
	s.lock = lf
	defer func() {
		// Any failed exit below must release the lock it just took.
		if s.wal == nil {
			unlockDir(lf)
		}
	}()

	// Snapshot first: it is the compacted base the WAL records merge over.
	snapPath := filepath.Join(o.Dir, snapshotName)
	if f, err := os.Open(snapPath); err == nil {
		torn, lerr := s.Load(f)
		f.Close()
		if lerr != nil {
			return nil, fmt.Errorf("storage: open %s: snapshot: %w", o.Dir, lerr)
		}
		// Snapshots are written atomically, so a torn tail here is real
		// damage, not a crash artifact — surfacing it in RecoveryInfo puts
		// it in the operator's recovery banner and makes the compaction
		// below rewrite a clean image.
		s.recovery.TornBytes += torn
		s.recovery.SnapshotKeys = s.Len()
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: open %s: %w", o.Dir, err)
	}

	// Then the segments, oldest first. wal.prev exists only if a previous
	// checkpoint crashed (or failed) between rotating and finishing; its
	// records may or may not be in the snapshot — Sync makes either fine.
	prevPath := filepath.Join(o.Dir, walPrevName)
	_, serr := os.Stat(prevPath)
	hadPrev := serr == nil
	for _, name := range []string{walPrevName, walName} {
		path := filepath.Join(o.Dir, name)
		records, torn, err := ReplayWAL(path, func(payload []byte) error {
			return s.applyReplay(payload)
		})
		if err != nil {
			return nil, fmt.Errorf("storage: open %s: %s: %w", o.Dir, name, err)
		}
		s.recovery.WALRecords += records
		s.recovery.TornBytes += torn
	}

	// Compact before the store goes live — but only when recovery actually
	// replayed something: a clean-shutdown restart (current snapshot,
	// empty log) must not rewrite the whole image just to start. The order
	// is snapshot-first: the retired segment and the replayed log are
	// dropped only after the snapshot containing their records is durably
	// in place, so no crash here ever leaves a record whose only copy was
	// just deleted. (No writers exist yet, so unlike Checkpoint this needs
	// no rotation.)
	if s.recovery.WALRecords > 0 || s.recovery.TornBytes > 0 || hadPrev {
		if err := s.writeSnapshot(); err != nil {
			return nil, fmt.Errorf("storage: open %s: compact: %w", o.Dir, err)
		}
		if err := os.Remove(prevPath); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("storage: open %s: drop retired wal: %w", o.Dir, err)
		}
		if err := os.Truncate(filepath.Join(o.Dir, walName), 0); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("storage: open %s: truncate wal: %w", o.Dir, err)
		}
		if err := syncDir(o.Dir); err != nil {
			return nil, err
		}
		s.checkpoints.Add(1)
	}

	w, err := OpenWAL(filepath.Join(o.Dir, walName), o.Fsync)
	if err != nil {
		return nil, err
	}
	// Persist the directory entries before the first append is acked: on a
	// fresh directory nothing above has fsynced the dir, and an fsynced
	// wal.log whose *name* a power cut can drop protects nothing. The
	// parent gets the same treatment so a just-MkdirAll'd data dir cannot
	// itself vanish.
	if err := syncDir(o.Dir); err != nil {
		w.Close()
		return nil, err
	}
	if parent := filepath.Dir(o.Dir); parent != o.Dir {
		if err := syncDir(parent); err != nil {
			w.Close()
			return nil, err
		}
	}
	s.wal = w
	return s, nil
}

// applyReplay decodes one WAL record (key + state) and merges it into the
// store without touching the WAL — replayed records are already on disk.
func (s *Store) applyReplay(payload []byte) error {
	key, st, err := decodeRecord(s.mech, payload)
	if err != nil {
		return err
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, existed := sh.data[key]
	oldMeta := 0
	if existed {
		oldMeta = s.mech.MetadataBytes(cur)
		st = s.mech.Sync(cur, st)
	}
	s.install(sh, key, st, existed, oldMeta, HashState(s.mech, st))
	return nil
}

// Recovery returns what Open found on disk (zero for in-memory stores).
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// WALSize returns the log's logical offset in bytes (monotone across
// checkpoints; the coordinate system FailWALAt offsets live in).
func (s *Store) WALSize() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Size()
}

// FailWALAt arms the WAL crash failpoint (see WAL.FailAt): the store stops
// persisting at the given segment offset, every mutation from then on
// fails without touching memory, and onCrash fires once. Experiments use
// it to kill a replica at an arbitrary byte of its log.
func (s *Store) FailWALAt(offset int64, onCrash func()) {
	if s.wal != nil {
		s.wal.FailAt(offset, onCrash)
	}
}

// InjectFaults attaches a transient disk-fault injector to the WAL (see
// fault.go); a no-op on in-memory stores, which have no disk to be sick.
func (s *Store) InjectFaults(f *Faults) {
	if s.wal != nil {
		s.wal.SetFaults(f)
	}
}

// appendWAL frames (key, post-state) with the shared pooled writer and
// appends it to the log, blocking until durable. Called with the key's
// shard lock held, *before* the state is installed — write-ahead order.
func (s *Store) appendWAL(key string, st core.State) (uint64, error) {
	w := codec.GetPooledWriter()
	w.String(key)
	mark := w.Len()
	s.mech.EncodeState(w, st)
	// The record's state bytes are exactly the canonical encoding KeyHash
	// is defined over — hash them here so install needs no second encode.
	hash := HashEncoded(w.Bytes()[mark:])
	err := s.wal.Append(w.Bytes())
	codec.PutPooledWriter(w)
	if err != nil {
		return 0, err
	}
	s.walAppends.Add(1)
	return hash, nil
}

// Checkpoint writes an atomic snapshot of the whole store and truncates
// the WAL: the active segment is rotated aside, the snapshot is written to
// a temp file and renamed into place, and only then is the retired segment
// deleted. A crash at any point leaves a directory Open can recover
// exactly (the retired segment is replayed if it still exists). Writers
// are never blocked beyond their usual shard-lock hold.
//
// If a retired segment from a previously failed checkpoint still exists,
// rotation is skipped entirely this round: that segment may be the only
// durable copy of acked writes (the failed attempt never finished its
// snapshot), and rotating over it would destroy them. Its records are in
// memory (installed under shard locks before it was rotated, or replayed
// by Open), so the snapshot written below covers it and it is deleted
// afterwards; the log just keeps growing until the next checkpoint
// rotates normally.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return errors.New("storage: checkpoint: store is not durable")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	prevPath := filepath.Join(s.dir, walPrevName)
	if _, err := os.Stat(prevPath); os.IsNotExist(err) {
		if err := s.wal.rotate(prevPath); err != nil {
			return fmt.Errorf("storage: checkpoint rotate: %w", err)
		}
	} else if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := s.writeSnapshot(); err != nil {
		return err
	}
	if err := os.Remove(prevPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: checkpoint: drop retired wal: %w", err)
	}
	s.checkpoints.Add(1)
	return nil
}

// writeSnapshot writes the whole store to snapshot.tmp, fsyncs it, renames
// it over snapshot.dat and fsyncs the directory — the atomic-snapshot
// primitive shared by Checkpoint and Open's recovery compaction.
func (s *Store) writeSnapshot() error {
	tmpPath := filepath.Join(s.dir, snapshotTmpName)
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := s.Save(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("storage: checkpoint flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: checkpoint close: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("storage: checkpoint rename: %w", err)
	}
	return syncDir(s.dir)
}

// Close flushes and closes the WAL and releases the directory lock
// (no-op for in-memory stores). The store must not be mutated afterwards.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	unlockDir(s.lock)
	s.lock = nil
	return err
}

// lockDir takes the exclusive directory lock shared by both durable
// engines: two owners appending to one log would interleave frames from
// independent file positions — mid-file damage the recovery paths rightly
// refuse to repair. Held until Close; the kernel drops it if the process
// dies, so a crashed owner never wedges the directory.
func lockDir(dir string) (*os.File, error) {
	lf, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		return nil, fmt.Errorf("storage: open %s: already in use by another store (flock: %w)", dir, err)
	}
	return lf, nil
}

// unlockDir releases a lockDir handle.
func unlockDir(lf *os.File) {
	if lf != nil {
		syscall.Flock(int(lf.Fd()), syscall.LOCK_UN)
		lf.Close()
	}
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir %s: %w", dir, err)
	}
	return nil
}
