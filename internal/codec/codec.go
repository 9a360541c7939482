// Package codec implements the deterministic binary wire format for every
// clock and message in the repository. The experiments (C2, C3 in
// DESIGN.md) report *exact encoded metadata bytes*, so the codec is the
// measurement instrument: sizes must be deterministic — maps are encoded in
// sorted key order — and self-describing enough to round-trip.
//
// Format primitives (all little-endian where applicable):
//
//	uvarint  — unsigned LEB128, as encoding/binary
//	string   — uvarint length + raw bytes
//	bytes    — uvarint length + raw bytes
//
// Composite layouts are documented on each Encode function.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/dot"
	"repro/internal/dvv"
	"repro/internal/vv"
)

// ErrTruncated reports an input that ended mid-value.
var ErrTruncated = errors.New("codec: truncated input")

// ErrCorrupt reports structurally invalid input.
var ErrCorrupt = errors.New("codec: corrupt input")

// maxLen caps length prefixes to keep a corrupt or hostile stream from
// forcing huge allocations before the decoder notices.
const maxLen = 1 << 26 // 64 MiB

// MaxFrameBytes is the largest frame payload AppendFrame will emit and
// ReadFrame will accept. Callers sharing a connection across concurrent
// requests (the mux transport) should reject oversized
// payloads before queueing them, so one huge message fails alone instead
// of erroring inside the shared writer and tearing the connection down.
const MaxFrameBytes = maxLen

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity preallocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes (the writer's own storage).
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the writer for reuse, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Truncate drops everything written after byte offset n (a value
// previously returned by Len) — used by batching encoders to revert an
// item that pushed a frame over its size budget.
func (w *Writer) Truncate(n int) {
	if n >= 0 && n <= len(w.buf) {
		w.buf = w.buf[:n]
	}
}

// Append appends raw pre-encoded bytes (no length prefix).
func (w *Writer) Append(b []byte) { w.buf = append(w.buf, b...) }

// maxPooledWriterCap caps the buffer capacity kept in the shared pool: one
// huge message must not permanently pin a multi-megabyte buffer behind
// every future small encode.
const maxPooledWriterCap = 64 << 10

// writerPool backs GetPooledWriter/PutPooledWriter — the one pooled
// scratch-writer implementation shared by the request path (internal/node)
// and the state hashing path (internal/storage).
var writerPool = sync.Pool{
	New: func() any { return NewWriter(256) },
}

// GetPooledWriter returns a reset scratch writer from the shared pool.
func GetPooledWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutPooledWriter returns w to the pool. Oversized buffers are dropped so
// the pool keeps only request-sized capacity. Callers must copy out any
// bytes that outlive the call before putting the writer back.
func PutPooledWriter(w *Writer) {
	if cap(w.buf) > maxPooledWriterCap {
		return
	}
	writerPool.Put(w)
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes appends length-prefixed raw bytes.
func (w *Writer) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Byte appends a single raw byte (tags, booleans).
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
		return
	}
	w.Byte(0)
}

// Reader decodes a message produced by Writer. It records the first error
// and makes all subsequent reads no-ops, so call sites can decode a whole
// structure and check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b (not copied).
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// fail records err (once) and returns the zero value convenience.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint. Non-minimal encodings (trailing
// padding continuation bytes) are rejected so that every value has exactly
// one wire form — the codec doubles as the metadata-size measurement
// instrument, and canonical varints keep sizes and hashes deterministic.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(fmt.Errorf("%w: uvarint overflow", ErrCorrupt))
		}
		return 0
	}
	if n != uvarintLen(v) {
		r.fail(fmt.Errorf("%w: non-minimal uvarint", ErrCorrupt))
		return 0
	}
	r.off += n
	return v
}

// take returns the next n bytes without copying.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > maxLen {
		r.fail(fmt.Errorf("%w: length %d exceeds limit", ErrCorrupt, n))
		return nil
	}
	if uint64(len(r.buf)-r.off) < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	return string(r.take(r.Uvarint()))
}

// BytesFieldView reads length-prefixed bytes without copying: the result
// aliases the reader's input (capacity clipped, so appending to it never
// overwrites what follows). It suits inputs that are never reused, such
// as a freshly read frame; otherwise use BytesField.
func (r *Reader) BytesFieldView() []byte {
	b := r.take(r.Uvarint())
	return b[:len(b):len(b)]
}

// BytesField reads length-prefixed bytes (copied, safe to retain).
func (r *Reader) BytesField() []byte {
	b := r.take(r.Uvarint())
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: invalid bool", ErrCorrupt))
		return false
	}
}

// Expect consumes the rest of the buffer, failing if bytes remain.
func (r *Reader) ExpectEOF() {
	if r.err == nil && r.Remaining() != 0 {
		r.fail(fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining()))
	}
}

// ---------------------------------------------------------------------------
// Replica-id interning.
// ---------------------------------------------------------------------------

// Replica ids repeat endlessly on the wire — every vector entry and every
// dot of every clock names one of a handful of servers — so decoding
// `string(bytes)` per entry made wide vectors pay one string allocation per
// entry. The intern table caches one immutable copy per distinct id; the
// map lookup keyed by string(b) does not allocate (the compiler elides the
// conversion for map access), so steady-state decodes allocate no id
// strings at all.
const (
	// maxInternedIDs bounds the table so a hostile or fuzzed stream cannot
	// grow it without limit; ids beyond the cap are simply allocated.
	maxInternedIDs = 1 << 14
	// maxInternedIDLen keeps huge ids out of the permanent table.
	maxInternedIDLen = 128
)

// The table is copy-on-write: readers atomically load an immutable map
// and look up without any lock or allocation (decode runs on every RPC,
// concurrently across request handlers, so a shared mutex here would be a
// process-global serialization point). Writers — rare: only the first
// sighting of an id — copy the map under internWriteMu and swap it in.
var (
	internWriteMu sync.Mutex
	internTab     atomic.Value // map[string]dot.ID, never mutated in place
)

func init() {
	internTab.Store(make(map[string]dot.ID))
}

// internID returns the canonical dot.ID for the raw bytes, allocating a
// backing string only the first time a given id is seen.
func internID(b []byte) dot.ID {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternedIDLen {
		return dot.ID(b)
	}
	tab := internTab.Load().(map[string]dot.ID)
	if id, ok := tab[string(b)]; ok {
		return id
	}
	id := dot.ID(b)
	if len(tab) >= maxInternedIDs {
		// Table at capacity: new ids are simply allocated, and future
		// misses never touch the write lock.
		return id
	}
	internWriteMu.Lock()
	defer internWriteMu.Unlock()
	cur := internTab.Load().(map[string]dot.ID)
	if got, ok := cur[string(b)]; ok {
		return got
	}
	if len(cur) >= maxInternedIDs {
		return id
	}
	next := make(map[string]dot.ID, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[string(id)] = id
	internTab.Store(next)
	return id
}

// ID reads a length-prefixed replica id and interns it, so repeated ids
// across entries, clocks and messages share one string allocation.
func (r *Reader) ID() dot.ID {
	b := r.take(r.Uvarint())
	if b == nil {
		return ""
	}
	return internID(b)
}

// uvarintLen returns the encoded width of v in bytes (1–10).
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// ---------------------------------------------------------------------------
// Clock encodings.
// ---------------------------------------------------------------------------

// EncodeVV appends v as: uvarint count, then per entry (string id, uvarint
// counter). Entries are stored sorted, so the encoding is canonical with
// no scratch sort or allocation.
func EncodeVV(w *Writer, v vv.VV) {
	w.Uvarint(uint64(len(v)))
	for _, e := range v {
		w.String(string(e.ID))
		w.Uvarint(e.N)
	}
}

// DecodeVV reads a vector encoded by EncodeVV directly into a pre-sized
// entry slice, validating canonical form (ids strictly ascending, counters
// non-zero) instead of re-canonicalizing.
func DecodeVV(r *Reader) vv.VV {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	// Every entry needs at least two bytes, so a count beyond the unread
	// input is corrupt; this also bounds the allocation below.
	if n > uint64(r.Remaining()) {
		r.fail(fmt.Errorf("%w: VV count %d exceeds input", ErrCorrupt, n))
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make(vv.VV, 0, n)
	var prev dot.ID
	for i := uint64(0); i < n; i++ {
		id := r.ID()
		c := r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		if id == "" || c == 0 {
			r.fail(fmt.Errorf("%w: empty id or zero counter in VV", ErrCorrupt))
			return nil
		}
		if i > 0 && id <= prev {
			r.fail(fmt.Errorf("%w: VV ids not strictly ascending (%q after %q)", ErrCorrupt, id, prev))
			return nil
		}
		v = append(v, vv.Entry{ID: id, N: c})
		prev = id
	}
	return v
}

// VVSize returns the exact encoded size of v in bytes, computed
// arithmetically (no throwaway encode) so metadata accounting walks stay
// allocation-free.
func VVSize(v vv.VV) int {
	n := uvarintLen(uint64(len(v)))
	for _, e := range v {
		n += uvarintLen(uint64(len(e.ID))) + len(e.ID) + uvarintLen(e.N)
	}
	return n
}

// EncodeDot appends d as (string node, uvarint counter).
func EncodeDot(w *Writer, d dot.Dot) {
	w.String(string(d.Node))
	w.Uvarint(d.Counter)
}

// DecodeDot reads a dot; the node id is interned.
func DecodeDot(r *Reader) dot.Dot {
	return dot.Dot{Node: r.ID(), Counter: r.Uvarint()}
}

// DotSize returns the exact encoded size of d in bytes.
func DotSize(d dot.Dot) int {
	return uvarintLen(uint64(len(d.Node))) + len(d.Node) + uvarintLen(d.Counter)
}

// EncodeClock appends a DVV clock as dot + VV.
func EncodeClock(w *Writer, c dvv.Clock) {
	EncodeDot(w, c.D)
	EncodeVV(w, c.V)
}

// DecodeClock reads a DVV clock.
func DecodeClock(r *Reader) dvv.Clock {
	d := DecodeDot(r)
	v := DecodeVV(r)
	return dvv.New(d, v)
}

// ClockSize returns the exact encoded size of c in bytes — the paper's
// "metadata size" for one version under DVV — computed arithmetically.
func ClockSize(c dvv.Clock) int {
	return DotSize(c.D) + VVSize(c.V)
}

// EncodeClockSet appends a sibling set: uvarint count + clocks.
func EncodeClockSet(w *Writer, s []dvv.Clock) {
	w.Uvarint(uint64(len(s)))
	for _, c := range s {
		EncodeClock(w, c)
	}
}

// DecodeClockSet reads a sibling set.
func DecodeClockSet(r *Reader) []dvv.Clock {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(fmt.Errorf("%w: clock count %d exceeds input", ErrCorrupt, n))
		return nil
	}
	out := make([]dvv.Clock, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, DecodeClock(r))
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

// ClockSetSize returns the exact encoded metadata bytes of a sibling set,
// computed arithmetically.
func ClockSetSize(s []dvv.Clock) int {
	n := uvarintLen(uint64(len(s)))
	for _, c := range s {
		n += ClockSize(c)
	}
	return n
}

// ---------------------------------------------------------------------------
// io helpers: length-framed messages over a stream (TCP transport).
// ---------------------------------------------------------------------------

// FrameOverhead is the per-frame framing cost in bytes: the 4-byte
// big-endian length prefix AppendFrame puts before a payload.
const FrameOverhead = 4

// AppendFrame appends one length-framed message (the layout ReadFrame
// reads) to dst and returns the extended slice. The multiplexed
// transport's writer loop uses it to coalesce every queued frame into one
// buffer and hand the kernel a single write — the
// writev-style flush that amortizes syscalls across concurrent requests.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > maxLen {
		return dst, fmt.Errorf("codec: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [FrameOverhead]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// ReadFrame reads one length-framed message from br. The header is
// peeked out of br's buffer, so a frame that arrived whole costs at most
// one read syscall, and frames that arrived together share one. The
// returned payload is freshly allocated — the one allocation per frame —
// and never reused, so it may be decoded in place and retained. A clean
// end of stream at a frame boundary returns io.EOF unwrapped; any
// mid-frame truncation is reported as io.ErrUnexpectedEOF so callers can
// tell the two apart.
func ReadFrame(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(FrameOverhead)
	if err != nil {
		if err == io.EOF {
			if len(hdr) == 0 {
				return nil, io.EOF // clean boundary
			}
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("codec: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxLen {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrCorrupt, n)
	}
	_, _ = br.Discard(FrameOverhead) // cannot fail: the bytes are buffered
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("codec: read frame payload: %w", err)
	}
	return payload, nil
}
