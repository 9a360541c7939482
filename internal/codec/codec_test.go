package codec

import (
	"bytes"
	"errors"
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
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAA}, 4096)}
	for _, p := range payloads {
		var err error
		if raw, err = AppendFrame(raw, p); err != nil {
			t.Fatal(err)
		}
	}
	buf := bytes.NewReader(raw)
	for _, want := range payloads {
		got, err := ReadFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %v, want %v", got, want)
		}
	}
}

func TestReadFrameTruncated(t *testing.T) {
	raw, _ := AppendFrame(nil, []byte{1, 2, 3})
	raw = raw[:5] // cut mid-payload
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected error on truncated frame")
	}
}

func TestReadFrameHugeLengthRejected(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
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
