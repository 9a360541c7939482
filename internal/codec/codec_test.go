package codec

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dot"
	"repro/internal/dvv"
	"repro/internal/vv"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(0)
	w.Uvarint(1 << 40)
	w.String("hello")
	w.String("")
	w.BytesField([]byte{1, 2, 3})
	w.Bool(true)
	w.Bool(false)
	w.Byte(0xAB)

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("string = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("string = %q", got)
	}
	if got := r.BytesField(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools wrong")
	}
	if got := r.Byte(); got != 0xAB {
		t.Fatalf("byte = %x", got)
	}
	r.ExpectEOF()
	if r.Err() != nil {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{})
	_ = r.Uvarint() // fails: truncated
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
	// subsequent reads are no-ops returning zero values
	if r.String() != "" || r.Uvarint() != 0 || r.Byte() != 0 {
		t.Fatal("reads after error not zero")
	}
}

func TestInvalidBool(t *testing.T) {
	r := NewReader([]byte{7})
	_ = r.Bool()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.Byte()
	r.ExpectEOF()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestVVRoundTrip(t *testing.T) {
	tests := []vv.VV{
		nil,
		vv.New(),
		vv.From("A", 1),
		vv.From("A", 2, "B", 1, "server-long-name", 1<<33),
	}
	for _, v := range tests {
		w := NewWriter(0)
		EncodeVV(w, v)
		r := NewReader(w.Bytes())
		got := DecodeVV(r)
		r.ExpectEOF()
		if r.Err() != nil {
			t.Fatalf("decode %v: %v", v, r.Err())
		}
		if !got.Equal(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestVVEncodingDeterministic(t *testing.T) {
	// Maps must encode identically regardless of insertion order.
	a := vv.New()
	a.Set("A", 1)
	a.Set("B", 2)
	a.Set("C", 3)
	b := vv.New()
	b.Set("C", 3)
	b.Set("A", 1)
	b.Set("B", 2)
	wa, wb := NewWriter(0), NewWriter(0)
	EncodeVV(wa, a)
	EncodeVV(wb, b)
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		t.Fatal("encoding depends on insertion order")
	}
}

func TestVVRejectsCorrupt(t *testing.T) {
	// zero counter is non-canonical
	w := NewWriter(0)
	w.Uvarint(1)
	w.String("A")
	w.Uvarint(0)
	r := NewReader(w.Bytes())
	_ = DecodeVV(r)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err = %v", r.Err())
	}
	// empty id
	w2 := NewWriter(0)
	w2.Uvarint(1)
	w2.String("")
	w2.Uvarint(3)
	r2 := NewReader(w2.Bytes())
	_ = DecodeVV(r2)
	if !errors.Is(r2.Err(), ErrCorrupt) {
		t.Fatalf("err = %v", r2.Err())
	}
}

func TestClockRoundTrip(t *testing.T) {
	c := dvv.New(dot.New("A", 3), vv.From("A", 1, "B", 7))
	w := NewWriter(0)
	EncodeClock(w, c)
	r := NewReader(w.Bytes())
	got := DecodeClock(r)
	r.ExpectEOF()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !got.Equal(c) {
		t.Fatalf("round trip %v -> %v", c, got)
	}
}

func TestClockSetRoundTrip(t *testing.T) {
	s := []dvv.Clock{
		dvv.New(dot.New("A", 2), vv.From("A", 1)),
		dvv.New(dot.New("A", 3), vv.From("A", 1)),
	}
	w := NewWriter(0)
	EncodeClockSet(w, s)
	r := NewReader(w.Bytes())
	got := DecodeClockSet(r)
	r.ExpectEOF()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != 2 || !got[0].Equal(s[0]) || !got[1].Equal(s[1]) {
		t.Fatalf("round trip = %v", got)
	}
}

func TestSizesMatchEncoding(t *testing.T) {
	v := vv.From("A", 300, "B", 1)
	if VVSize(v) <= 0 {
		t.Fatal("VVSize must be positive")
	}
	w := NewWriter(0)
	EncodeVV(w, v)
	if VVSize(v) != w.Len() {
		t.Fatalf("VVSize = %d, actual %d", VVSize(v), w.Len())
	}
	c := dvv.New(dot.New("A", 3), v)
	w2 := NewWriter(0)
	EncodeClock(w2, c)
	if ClockSize(c) != w2.Len() {
		t.Fatalf("ClockSize = %d, actual %d", ClockSize(c), w2.Len())
	}
}

func TestClockSizeGrowsWithEntries(t *testing.T) {
	// The measurement instrument behind experiment C2: more vector entries
	// must mean strictly more bytes.
	small := dvv.New(dot.New("A", 1), vv.From("A", 1))
	big := dvv.New(dot.New("A", 1), vv.From("A", 1, "B", 1, "C", 1, "D", 1))
	if ClockSize(big) <= ClockSize(small) {
		t.Fatal("size not monotone in entries")
	}
}

func TestVVRoundTripQuick(t *testing.T) {
	f := func(m map[string]uint16) bool {
		v := vv.New()
		for k, n := range m {
			if k != "" && n > 0 {
				v.Set(dot.ID(k), uint64(n))
			}
		}
		w := NewWriter(0)
		EncodeVV(w, v)
		r := NewReader(w.Bytes())
		got := DecodeVV(r)
		r.ExpectEOF()
		return r.Err() == nil && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var raw []byte
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAA}, 4096), bytes.Repeat([]byte{0xBB}, 10000)}
	for _, p := range payloads {
		var err error
		if raw, err = AppendFrame(raw, p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(raw))
	for _, want := range payloads {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %v, want %v", got, want)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF unwrapped", err)
	}
}

// TestReadFrameTruncated cuts a two-frame stream at every byte: a cut at
// a frame boundary is a clean io.EOF, and a cut anywhere inside a frame —
// header or payload — is io.ErrUnexpectedEOF.
func TestReadFrameTruncated(t *testing.T) {
	first, _ := AppendFrame(nil, []byte{1, 2, 3})
	raw, _ := AppendFrame(append([]byte(nil), first...), []byte{4, 5, 6, 7})
	for cut := 0; cut < len(raw); cut++ {
		br := bufio.NewReader(bytes.NewReader(raw[:cut]))
		var err error
		for err == nil {
			_, err = ReadFrame(br)
		}
		if cut == 0 || cut == len(first) {
			if err != io.EOF {
				t.Errorf("cut at boundary %d: err = %v, want io.EOF unwrapped", cut, err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut inside a frame at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameHugeLengthRejected(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

// countingReader counts Read calls on the stream under a bufio.Reader.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadFrameCoalescedFramesOneRead: frames that arrive together (one
// coalesced flush) are read with one Read on the underlying stream, not
// two per frame.
func TestReadFrameCoalescedFramesOneRead(t *testing.T) {
	var raw []byte
	for i := 0; i < 20; i++ {
		raw, _ = AppendFrame(raw, bytes.Repeat([]byte{byte(i)}, 40))
	}
	src := &countingReader{r: bytes.NewReader(raw)}
	br := bufio.NewReader(src)
	for i := 0; i < 20; i++ {
		if _, err := ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	}
	if src.reads != 1 {
		t.Fatalf("20 coalesced frames took %d reads, want 1", src.reads)
	}
}

// TestBytesFieldViewAliases: the view shares the input's bytes (and its
// capacity stops at the field, so appending cannot clobber what follows),
// while BytesField still returns a private copy.
func TestBytesFieldViewAliases(t *testing.T) {
	w := NewWriter(0)
	w.BytesField([]byte("body"))
	w.Byte(0x7F)
	in := w.Bytes()

	r := NewReader(in)
	view := r.BytesFieldView()
	if r.Byte() != 0x7F || r.Err() != nil {
		t.Fatalf("reader misaligned after view: err %v", r.Err())
	}
	cp := NewReader(in).BytesField()
	if string(view) != "body" || string(cp) != "body" {
		t.Fatalf("view %q, copy %q", view, cp)
	}
	if &view[0] != &in[1] {
		t.Fatal("BytesFieldView copied its bytes")
	}
	if &cp[0] == &in[1] {
		t.Fatal("BytesField aliases its input")
	}
	if cap(view) != len(view) {
		t.Fatalf("view cap %d, want %d", cap(view), len(view))
	}
	in[1] = 'B'
	if string(view) != "Body" || string(cp) != "body" {
		t.Fatalf("after mutating the input: view %q, copy %q", view, cp)
	}
	_ = append(view, 'X')
	if in[len(in)-1] != 0x7F {
		t.Fatal("appending to the view overwrote the next field")
	}

	bad := NewReader([]byte{5, 'a'})
	if v := bad.BytesFieldView(); v != nil || !errors.Is(bad.Err(), ErrTruncated) {
		t.Fatalf("truncated view = %q, err %v", v, bad.Err())
	}
}

func TestDecodeFuzzedGarbage(t *testing.T) {
	// Random bytes must never panic the decoders; errors are fine.
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		n := r.Intn(64)
		b := make([]byte, n)
		r.Read(b)
		rd := NewReader(b)
		_ = DecodeClockSet(rd)
		rd2 := NewReader(b)
		_ = DecodeVV(rd2)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.String("abc")
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	w.Uvarint(7)
	r := NewReader(w.Bytes())
	if r.Uvarint() != 7 {
		t.Fatal("writer unusable after Reset")
	}
}
