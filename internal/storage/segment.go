// Immutable spill segments for the tiered engine. A segment is an
// append-only file of CRC-framed records in the WAL's frame format
// ([u32 len][u32 crc32c][payload], payload = record.go's key+state), named
//
//	seg-00000042.dat
//
// inside the data directory. Only the highest-numbered segment (the active
// one) is ever written; once rotated a segment is fsynced and never
// modified, so cold reads are plain preads with a CRC check and recovery
// is a sequential oldest-to-newest scan where the newest record for a key
// wins (installs are monotone: Sync(old, new) == new). Segments are not
// garbage-collected yet — superseded records are dropped at recovery
// compaction, not at runtime; see ARCHITECTURE.md.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// segMaxBytes is the rotation threshold for the active segment. Small
// enough that retired segments appear in any sustained spill workload,
// large enough that a segment amortises its open file handle.
const segMaxBytes = 1 << 20 // 1 MiB

// segRef locates one record's payload inside a segment: the coordinates a
// cold entry keeps in lieu of its state. Field order packs it into 16
// bytes, a third of every 48-byte index slot.
type segRef struct {
	off int64  // payload offset (just past the frame header)
	seg uint32 // segment id
	n   int32  // payload length in bytes
}

// segments owns the segment files of one tiered engine: the pread handles
// for every segment plus the append cursor of the active one. All methods
// are safe for concurrent use; writes are serialised by mu, reads pread
// through shared handles.
type segments struct {
	dir      string
	maxBytes int64

	mu       sync.Mutex
	files    map[uint32]*os.File // every segment, active included
	active   *os.File            // nil until the first write after open/rotate
	activeID uint32
	activeN  int64  // bytes appended to the active segment
	nextID   uint32 // id the next created segment takes
}

func segName(id uint32) string { return fmt.Sprintf("seg-%08d.dat", id) }

// listSegments returns the existing segment ids in dir, sorted ascending
// (the scan order that makes "last record wins" correct).
func listSegments(dir string) ([]uint32, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.dat"))
	if err != nil {
		return nil, fmt.Errorf("storage: list segments: %w", err)
	}
	ids := make([]uint32, 0, len(names))
	for _, name := range names {
		var id uint32
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%08d.dat", &id); err != nil {
			return nil, fmt.Errorf("storage: stray segment file %s", name)
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// openSegments opens pread handles for the existing segments in dir. The
// previously-active segment is not appended to again — the first
// post-recovery spill starts a fresh segment — so every pre-existing file
// is immutable from here on.
func openSegments(dir string, ids []uint32) (*segments, error) {
	ss := &segments{
		dir:      dir,
		maxBytes: segMaxBytes,
		files:    make(map[uint32]*os.File, len(ids)),
	}
	for _, id := range ids {
		f, err := os.Open(filepath.Join(dir, segName(id)))
		if err != nil {
			ss.close()
			return nil, fmt.Errorf("storage: open segment: %w", err)
		}
		ss.files[id] = f
		if id >= ss.nextID {
			ss.nextID = id + 1
		}
	}
	return ss, nil
}

// write appends one framed record to the active segment (rotating or
// creating it as needed) and returns where the payload landed. The write
// is NOT fsynced: a spilled dirty record's durable copy is still its WAL
// record until the next checkpoint fsyncs the active segment, and a
// rotated segment is fsynced by the rotation itself.
func (ss *segments) write(payload []byte) (segRef, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.active != nil && ss.activeN >= ss.maxBytes {
		if err := ss.rotateLocked(); err != nil {
			return segRef{}, err
		}
	}
	if ss.active == nil {
		id := ss.nextID
		ss.nextID++
		f, err := os.OpenFile(filepath.Join(ss.dir, segName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return segRef{}, fmt.Errorf("storage: create segment: %w", err)
		}
		ss.active, ss.activeID, ss.activeN = f, id, 0
		ss.files[id] = f
	}
	buf := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[walHeaderSize:], payload)
	if _, err := ss.active.WriteAt(buf, ss.activeN); err != nil {
		return segRef{}, fmt.Errorf("storage: segment %s: %w", segName(ss.activeID), err)
	}
	ref := segRef{seg: ss.activeID, off: ss.activeN + walHeaderSize, n: int32(len(payload))}
	ss.activeN += int64(len(buf))
	return ref, nil
}

// rotateLocked retires the active segment: fsync the file and the
// directory so it is durably immutable, then clear the cursor so the next
// write starts a new segment. Called with mu held.
func (ss *segments) rotateLocked() error {
	if err := ss.active.Sync(); err != nil {
		return fmt.Errorf("storage: rotate segment %s: %w", segName(ss.activeID), err)
	}
	if err := syncDir(ss.dir); err != nil {
		return err
	}
	ss.active = nil
	return nil
}

// syncActive fsyncs the active segment (if any) and the directory — the
// checkpoint barrier that makes every spilled record durable before the
// WAL that also held it is dropped.
func (ss *segments) syncActive() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.active != nil {
		if err := ss.active.Sync(); err != nil {
			return fmt.Errorf("storage: sync segment %s: %w", segName(ss.activeID), err)
		}
	}
	return syncDir(ss.dir)
}

// readScratchMax caps the read buffer a shard keeps between cold reads;
// a larger record gets a one-off buffer instead of pinning its size.
const readScratchMax = 64 << 10

// readAt preads and CRC-verifies the payload ref points at. The frame
// header is re-read alongside so a stale or corrupt ref is caught by the
// length and checksum rather than decoding garbage. The frame is read
// into *scratch, grown as needed, so the returned payload aliases it and
// is valid only until the next read through the same scratch.
func (ss *segments) readAt(ref segRef, scratch *[]byte) ([]byte, error) {
	ss.mu.Lock()
	f := ss.files[ref.seg]
	ss.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("storage: segment %s: gone", segName(ref.seg))
	}
	need := walHeaderSize + int(ref.n)
	buf := *scratch
	if cap(buf) < need {
		buf = make([]byte, need)
		if need <= readScratchMax {
			*scratch = buf
		}
	}
	buf = buf[:need]
	if _, err := f.ReadAt(buf, ref.off-walHeaderSize); err != nil {
		return nil, fmt.Errorf("storage: segment %s @%d: %w", segName(ref.seg), ref.off, err)
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != uint32(ref.n) {
		return nil, fmt.Errorf("storage: segment %s @%d: length mismatch (%w)", segName(ref.seg), ref.off, ErrCorruptRecord)
	}
	payload := buf[walHeaderSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, fmt.Errorf("storage: segment %s @%d: checksum mismatch (%w)", segName(ref.seg), ref.off, ErrCorruptRecord)
	}
	return payload, nil
}

// count returns the number of segment files.
func (ss *segments) count() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.files)
}

// close closes every segment handle.
func (ss *segments) close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var first error
	for _, f := range ss.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	ss.files = map[uint32]*os.File{}
	ss.active = nil
	return first
}
