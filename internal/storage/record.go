// The one on-disk record format shared by every persistence surface in
// this package: a WAL record, a snapshot record and a segment record are
// all the same codec framing —
//
//	[string key][mechanism state encoding]
//
// wrapped in whatever outer frame the carrier uses (the WAL's and the
// segments' [len][crc] frame, the snapshot's [len] frame). One encoder and
// one decoder mean a record written by any engine path replays through any
// recovery path, and the no-op-merge byte compare in SyncKey, the
// snapshot writer and the tiered engine's spill path can never drift into
// incompatible encodings.
package storage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
)

// encodeRecord appends the canonical (key, state) record payload to w. The
// key is raw bytes (the tiered engine spills it straight from its arena);
// BytesField encodes exactly as the String field the WAL writers emit.
func encodeRecord(m core.Mechanism, w *codec.Writer, key []byte, st core.State) {
	w.BytesField(key)
	m.EncodeState(w, st)
}

// decodeRecord parses a payload built by encodeRecord, rejecting trailing
// garbage. The key is returned even when the state fails to decode, so
// callers can name the damaged key in errors.
func decodeRecord(m core.Mechanism, payload []byte) (string, core.State, error) {
	r := codec.NewReader(payload)
	key := r.String()
	if r.Err() != nil {
		return "", nil, r.Err()
	}
	st, err := m.DecodeState(r)
	if err != nil {
		return key, nil, err
	}
	r.ExpectEOF()
	if r.Err() != nil {
		return key, nil, r.Err()
	}
	return key, st, nil
}

// splitRecord returns a record payload's key bytes and its state encoding
// without copying or decoding either — the allocation-free path for callers
// that compare the key against bytes they already hold or pass the
// canonical state bytes straight through.
func splitRecord(payload []byte) (key, state []byte, err error) {
	n, k := binary.Uvarint(payload)
	switch {
	case k == 0:
		return nil, nil, codec.ErrTruncated
	case k < 0:
		return nil, nil, fmt.Errorf("%w: uvarint overflow", codec.ErrCorrupt)
	case k > 1 && payload[k-1] == 0:
		return nil, nil, fmt.Errorf("%w: non-minimal uvarint", codec.ErrCorrupt)
	case n > uint64(len(payload)-k):
		return nil, nil, codec.ErrTruncated
	}
	end := k + int(n)
	return payload[k:end], payload[end:], nil
}

// decodeState decodes a state encoding split off by splitRecord, rejecting
// trailing garbage.
func decodeState(m core.Mechanism, state []byte) (core.State, error) {
	r := codec.NewReader(state)
	st, err := m.DecodeState(r)
	if err != nil {
		return nil, err
	}
	r.ExpectEOF()
	if r.Err() != nil {
		return nil, r.Err()
	}
	return st, nil
}
