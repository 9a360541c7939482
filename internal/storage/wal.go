// Write-ahead log: the append-only durability substrate under an engine
// with a data directory. Every mutation is appended as one CRC-framed record *before* it
// is installed in memory, so a replica's in-memory state never runs ahead
// of its disk — the invariant that makes post-crash recovery unable to
// regress a dot counter the replica already issued (the paper-correctness
// hazard: a reborn replica minting a duplicate dot).
//
// Record framing (all little-endian):
//
//	[u32 payload length][u32 CRC-32C of payload][payload bytes]
//
// Appends use group commit: concurrent appenders queue their records under
// one mutex, a single leader writes the whole batch and fsyncs once, and
// every appender whose record the batch covered returns. One fsync is thus
// amortized over all puts that arrived while the previous fsync was in
// flight — the classic log discipline that keeps fsync-per-ack affordable.
//
// Replay tolerates a torn tail: a crash mid-append leaves a prefix of the
// final record, which ReplayWAL detects (unexpected EOF inside a frame),
// truncates away and reports, so the log is immediately appendable again.
// Damage *before* the tail — a CRC mismatch on a fully present record — is
// not survivable bit rot and fails loudly with ErrCorruptRecord.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrCorruptRecord reports mid-file damage: a record that is fully present
// but fails its CRC or does not decode. Unlike a torn tail this cannot be
// repaired by truncation, so recovery refuses to guess.
var ErrCorruptRecord = errors.New("storage: corrupt record")

// ErrWALCrashed is returned by WAL appends after the injected crash
// failpoint has fired: the log persists nothing past the crash offset and
// every subsequent append fails, exactly as if the process had died.
var ErrWALCrashed = errors.New("storage: wal crashed (failpoint)")

// ErrWALClosed is returned by appends after Close.
var ErrWALClosed = errors.New("storage: wal closed")

// walHeaderSize is the per-record framing overhead: length + CRC.
const walHeaderSize = 8

// maxWALRecord bounds one record so a corrupt length prefix cannot force
// an enormous allocation during replay.
const maxWALRecord = 1 << 26 // 64 MiB

// castagnoli is the CRC-32C table (hardware-accelerated on most CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WAL is an append-only, CRC-framed, group-committed log file.
type WAL struct {
	path string
	sync bool // fsync on every commit batch

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	// Offsets are logical and monotone for the lifetime of the WAL value:
	// rotation swaps the file but never resets them. This preserves the
	// conservation invariant appended = durable + pending + in-flight, so
	// an appender parked on cond.Wait always has a reachable target —
	// resetting on rotation would strand waiters (and their shard locks)
	// behind targets that can never be satisfied again.
	pending  []byte // framed records not yet handed to a flush
	appended int64  // logical offset including pending bytes
	durable  int64  // logical offset flushed (fsynced when sync is on)
	segStart int64  // logical offset where the current segment file begins
	flushing bool   // a leader is writing a batch
	err      error  // sticky terminal error (crash, close, IO failure)

	// failpoint: when crashAt > 0, the flush that would cross that offset
	// writes only the bytes up to it (a torn record), fires onCrash once,
	// and wedges the log with ErrWALCrashed.
	crashAt int64
	onCrash func()
	fired   bool

	// faults, when non-nil, is the schedulable transient-fault injector
	// (fsync stalls, bounded append failures) — see fault.go.
	faults *Faults

	appends, batches, syncs uint64
}

// OpenWAL opens (creating if needed) the log at path for appending. With
// syncOnCommit set, every group-commit batch is fsynced before its
// appenders return — the durability mode under which an acked write
// survives any crash.
func OpenWAL(path string, syncOnCommit bool) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	w := &WAL{path: path, sync: syncOnCommit, f: f, appended: size, durable: size}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// Size returns the log's logical offset in bytes (including records
// queued but not yet flushed). Logical offsets are monotone across
// rotations; SegmentSize gives the active file's size.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Stats returns cumulative append, commit-batch and fsync counts.
func (w *WAL) Stats() (appends, batches, syncs uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.batches, w.syncs
}

// FailAt arms the crash failpoint: the flush that would carry the log past
// offset bytes is torn there, onCrash (optional) fires once in its own
// goroutine, and the log permanently returns ErrWALCrashed. The offset is
// in the same logical coordinates as Size.
func (w *WAL) FailAt(offset int64, onCrash func()) {
	w.mu.Lock()
	w.crashAt = offset
	w.onCrash = onCrash
	w.mu.Unlock()
}

// SetFaults attaches (or, with nil, detaches) the transient-fault
// injector. Unlike FailAt's permanent crash, injected faults are
// retryable and never wedge the log.
func (w *WAL) SetFaults(f *Faults) {
	w.mu.Lock()
	w.faults = f
	w.mu.Unlock()
}

// Append frames payload and blocks until the record is durable (written,
// and fsynced when the log is in sync mode). Concurrent appenders share
// commit batches: whichever goroutine finds no flush in progress becomes
// the leader, writes everything pending and wakes the rest. The payload is
// copied; callers may reuse it immediately.
func (w *WAL) Append(payload []byte) error {
	if len(payload) == 0 {
		// An empty record's frame is 8 zero bytes (CRC of nothing is 0) —
		// indistinguishable from a power cut's zero-filled tail, which
		// replay must be able to classify. Nothing legitimate is empty.
		return errors.New("storage: empty wal record")
	}
	if len(payload) > maxWALRecord {
		return fmt.Errorf("storage: wal record of %d bytes exceeds limit", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.faults != nil {
		// Transient fault: fail *before* queuing, so the group-commit
		// offset accounting never sees the record and the log stays
		// healthy for the very next append.
		if err := w.faults.appendErr(); err != nil {
			return err
		}
	}
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	w.pending = append(w.pending, hdr[:]...)
	w.pending = append(w.pending, payload...)
	w.appended += int64(walHeaderSize + len(payload))
	w.appends++
	target := w.appended

	for w.durable < target && w.err == nil {
		if w.flushing {
			w.cond.Wait()
			continue
		}
		// Become the leader: flush everything pending in one write (and at
		// most one fsync), with the mutex released so later appenders can
		// queue into the next batch meanwhile.
		w.flushing = true
		batch := w.pending
		w.pending = nil
		start := w.durable
		crashAt := w.crashAt
		stall := w.stallLocked()
		f := w.f // captured under mu; rotate may swap it once flushing clears
		w.mu.Unlock()
		if stall > 0 {
			time.Sleep(stall) // injected slow-disk stall (fault.go)
		}
		n, ferr := flushBatch(f, batch, start, crashAt, w.sync)
		w.mu.Lock()
		w.flushing = false
		w.durable = start + int64(n)
		w.batches++
		if (w.sync && n > 0) || errors.Is(ferr, ErrWALCrashed) {
			w.syncs++ // flushBatch fsynced this batch
		}
		w.noteFlushErr(ferr)
		w.cond.Broadcast()
	}
	if w.durable >= target {
		return nil
	}
	return w.err
}

// stallLocked samples the injected commit-path stall (mu held).
func (w *WAL) stallLocked() time.Duration {
	if w.faults == nil {
		return 0
	}
	return w.faults.stall()
}

// noteFlushErr records a terminal flush error and fires the armed onCrash
// callback exactly once when the error is the failpoint tear — every path
// that flushes (Append's leader, rotate, Close) reports through here so
// the FailAt contract holds no matter which one hits the offset. Called
// with w.mu held.
func (w *WAL) noteFlushErr(ferr error) {
	if ferr == nil {
		return
	}
	if w.err == nil {
		w.err = ferr
	}
	if errors.Is(ferr, ErrWALCrashed) && !w.fired {
		w.fired = true
		if w.onCrash != nil {
			go w.onCrash()
		}
	}
}

// flushBatch writes batch starting at file offset start, honouring the
// crash failpoint: a batch that would cross crashAt is written only up to
// it (tearing the record that straddles the boundary) and reports
// ErrWALCrashed. What was written before the tear is fsynced — the
// sectors that made it to the platter before the power went.
func flushBatch(f *os.File, batch []byte, start, crashAt int64, syncOnCommit bool) (int, error) {
	limit := len(batch)
	var crashErr error
	if crashAt > 0 && start+int64(len(batch)) > crashAt {
		limit = int(crashAt - start)
		if limit < 0 {
			limit = 0
		}
		crashErr = ErrWALCrashed
	}
	if limit > 0 {
		if _, err := f.Write(batch[:limit]); err != nil {
			return 0, fmt.Errorf("storage: wal write: %w", err)
		}
	}
	if (syncOnCommit && limit > 0) || crashErr != nil {
		if err := f.Sync(); err != nil && crashErr == nil {
			// The bytes are written but not durable: report zero progress
			// so no appender in this batch is acked. (They may still be
			// recovered by a later replay — recovering *unacked* records
			// is always safe; acking *unrecoverable* ones never is.)
			return 0, fmt.Errorf("storage: wal sync: %w", err)
		}
	}
	return limit, crashErr
}

// rotate atomically retires the current segment: pending records are
// flushed to it, the file is renamed to prevPath, and a fresh empty
// segment is opened at the original path. Used by Checkpoint so that
// records appended while the snapshot is being written land in the new
// segment and survive the old one's deletion.
func (w *WAL) rotate(prevPath string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if ferr := w.flushPendingLocked(); ferr != nil {
		w.cond.Broadcast()
		return ferr
	}
	w.cond.Broadcast()
	// The remaining steps swap the file out from under the log; a failure
	// in any of them leaves the WAL half-rotated (closed or renamed file),
	// so it must wedge with a sticky terminal error rather than let the
	// next append fail with a misleading "file already closed".
	if err := w.failRotate(w.f.Sync(), "sync"); err != nil {
		return err
	}
	if err := w.failRotate(w.f.Close(), "close"); err != nil {
		w.f = nil // closed; Close must not close it again
		return err
	}
	w.f = nil // closed until the reopen below succeeds
	if err := w.failRotate(os.Rename(w.path, prevPath), "rename"); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err := w.failRotate(err, "reopen"); err != nil {
		return err
	}
	// Persist the rename and the new segment's directory entry before any
	// append is acked into it: fsyncing file *data* is worthless if a
	// power cut can drop the file's very existence, and the caller's next
	// directory sync may be a whole snapshot-write away.
	if err := w.failRotate(syncDir(filepath.Dir(w.path)), "dir sync"); err != nil {
		f.Close()
		return err
	}
	w.f = f
	// Logical offsets keep counting (see the field comment); only the
	// segment boundary moves.
	w.segStart = w.appended
	return nil
}

// failRotate records a rotation-step failure as the WAL's sticky terminal
// error (mu held). Returns nil when err is nil.
func (w *WAL) failRotate(err error, step string) error {
	if err == nil {
		return nil
	}
	werr := fmt.Errorf("storage: wal rotate %s: %w", step, err)
	if w.err == nil {
		w.err = werr
	}
	w.cond.Broadcast()
	return werr
}

// flushPendingLocked flushes every queued record in one batch, updating
// the durable offset and the batch/fsync counters and recording terminal
// errors — the one flush-bookkeeping implementation shared by rotate and
// Close (Append's leader keeps its own copy because it releases the mutex
// around the IO). Called with w.mu held and no flush in flight.
func (w *WAL) flushPendingLocked() error {
	if len(w.pending) == 0 {
		return nil
	}
	if stall := w.stallLocked(); stall > 0 {
		time.Sleep(stall) // injected slow-disk stall (fault.go)
	}
	n, ferr := flushBatch(w.f, w.pending, w.durable, w.crashAt, w.sync)
	w.durable += int64(n)
	w.pending = nil
	w.batches++
	if (w.sync && n > 0) || errors.Is(ferr, ErrWALCrashed) {
		w.syncs++
	}
	w.noteFlushErr(ferr)
	return ferr
}

// SegmentSize returns the active segment file's logical size in bytes
// (what a checkpoint truncates to zero).
func (w *WAL) SegmentSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended - w.segStart
}

// Close flushes pending records and closes the file. Further appends fail
// with ErrWALClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	if errors.Is(w.err, ErrWALClosed) {
		return nil
	}
	var ferr error
	if w.err == nil {
		ferr = w.flushPendingLocked()
	}
	if w.err == nil {
		w.err = ErrWALClosed
	}
	w.cond.Broadcast()
	// w.f is nil when a failed rotate already closed it — that failure is
	// the interesting error, not a second Close's os.ErrClosed.
	if w.f != nil {
		if cerr := w.f.Close(); cerr != nil && ferr == nil {
			ferr = cerr
		}
		w.f = nil
	}
	return ferr
}

// ReplayWAL streams every intact record of the log at path through fn, in
// append order. A torn tail — an unexpected EOF inside the final record's
// frame — is truncated off the file (so the log is appendable again) and
// reported via torn; a CRC failure on a fully present record, or an fn
// error, aborts with the record's offset in the error. A missing file
// replays zero records.
func ReplayWAL(path string, fn func(payload []byte) error) (records int, torn int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("storage: replay wal: %w", err)
	}
	defer f.Close()
	r := newByteReader(f)
	var good int64 // offset just past the last intact record
	for {
		var hdr [walHeaderSize]byte
		_, herr := io.ReadFull(r, hdr[:])
		if herr == io.EOF {
			break // clean end at a record boundary
		}
		if herr == io.ErrUnexpectedEOF {
			torn, terr := truncateTail(f, good, r.offset)
			return records, torn, terr
		}
		if herr != nil {
			return records, 0, fmt.Errorf("storage: replay wal: %w", herr)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 {
			// Append never writes empty records, so a zero header is the
			// leading edge of a zero-filled tail (tolerated) or of rot
			// (fatal) — recordFailure tells them apart.
			return recordFailure(f, good, records,
				fmt.Errorf("%w: empty record at offset %d", ErrCorruptRecord, good))
		}
		if length > maxWALRecord {
			// An absurd length prefix is either a torn header or rot; with
			// nothing after it, it is indistinguishable from a tear, so
			// treat it as one only if nothing intact could follow — which
			// we cannot know. Fail explicitly: the CRC framing makes real
			// tears end in short reads, not giant lengths.
			return records, 0, fmt.Errorf("%w: record at offset %d declares %d bytes", ErrCorruptRecord, good, length)
		}
		payload := make([]byte, length)
		if _, perr := io.ReadFull(r, payload); perr != nil {
			if perr == io.EOF || perr == io.ErrUnexpectedEOF {
				torn, terr := truncateTail(f, good, r.offset)
				return records, torn, terr
			}
			return records, 0, fmt.Errorf("storage: replay wal: %w", perr)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return recordFailure(f, good, records,
				fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorruptRecord, good))
		}
		if err := fn(payload); err != nil {
			return recordFailure(f, good, records,
				fmt.Errorf("%w: record at offset %d: %v", ErrCorruptRecord, good, err))
		}
		records++
		good += int64(walHeaderSize) + int64(length)
	}
	return records, 0, nil
}

// recordFailure classifies a record-level replay failure at offset good:
// if everything from there to EOF is zero — the artifact a power cut can
// leave when the filesystem persists the inode's size but not its final
// data pages — the region never held acked bytes and is truncated away
// like a short tear. Anything else (nonzero garbage, rot under valid
// framing) stays a fatal corruption error: guessing past it could skip
// acked records.
func recordFailure(f *os.File, good int64, records int, cause error) (int, int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return records, 0, cause
	}
	buf := make([]byte, 1<<16)
	for off := good; off < size; {
		n, err := f.ReadAt(buf[:int(min(int64(len(buf)), size-off))], off)
		for _, b := range buf[:n] {
			if b != 0 {
				return records, 0, cause
			}
		}
		if err != nil && err != io.EOF {
			return records, 0, cause
		}
		off += int64(n)
		if n == 0 {
			break
		}
	}
	torn, terr := truncateTail(f, good, size)
	return records, torn, terr
}

// truncateTail cuts the file back to the last intact record boundary and
// reports how many torn bytes were discarded.
func truncateTail(f *os.File, good, end int64) (int64, error) {
	if err := f.Truncate(good); err != nil {
		return 0, fmt.Errorf("storage: truncate torn wal tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("storage: sync truncated wal: %w", err)
	}
	return end - good, nil
}

// byteReader is a buffered reader that tracks the offset of bytes handed
// to its consumer (not the underlying file position, which the buffer
// runs ahead of) — the coordinate the torn-tail arithmetic needs.
type byteReader struct {
	r      *bufio.Reader
	offset int64
}

func newByteReader(r io.Reader) *byteReader {
	return &byteReader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (b *byteReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.offset += int64(n)
	return n, err
}
