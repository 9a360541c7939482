package sim

import (
	"testing"
	"time"
)

// TestMerkleAESmoke runs E5 at a reduced size: the tree walk must
// converge in one sweep over the real loopback transports, report its
// rounds, and ship fewer bytes than a flat (key, hash) listing. The 10x
// acceptance bar is not enforced here — at smoke sizes the walk's fixed
// per-level costs rival the tiny listing — only in the full-size run.
func TestMerkleAESmoke(t *testing.T) {
	cfg := MerkleConfig{
		Keys:       4000,
		DiffFrac:   0.002, // 8 keys
		ValueBytes: 16,
		Timeout:    time.Minute,
		Seed:       5,
	}
	r, table, err := RunMerkleAE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(table.Rows) != 1 {
		t.Fatalf("table = %v", table)
	}
	if r.Sweeps != 1 {
		t.Fatalf("tree walk took %d sweeps over a reliable loopback", r.Sweeps)
	}
	if r.Bytes == 0 || r.Frames == 0 || r.TreeRounds == 0 {
		t.Fatalf("measured no wire traffic or tree rounds: %+v", r)
	}
	if r.Bytes >= r.FlatBytes {
		t.Fatalf("tree bytes %d not under the flat listing %d", r.Bytes, r.FlatBytes)
	}
}
