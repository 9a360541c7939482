package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/storage"
	"repro/internal/workload"
)

// spec fixes one workload: the traffic mix and the storage configuration of
// the three-node deployment it runs against. Everything else about the
// deployment (N=3/R=2/W=2, read repair, hinted handoff, 1 s tree
// anti-entropy, default batching, 2 s timeout) is the same for all four and
// lives in bringUp.
type spec struct {
	name string // BENCHMARK.json says why each workload exists

	// openRate > 0 makes the workload open-loop at that many requests per
	// second; 0 is a closed loop of C clients.
	openRate int

	keys       int
	valueBytes int
	writers    int     // logical writer ids (0 = one per client connection)
	zipf       float64 // key skew; 0 = uniform
	getFrac    float64 // share of ops that read
	blindFrac  float64 // share of *writes* that present no context

	engine      string // storage.EngineMemory or storage.EngineTiered
	durable     bool   // DataDir set
	fsync       bool
	memBudget   int64
	maxInFlight int

	preload bool // install one value per key on every replica before traffic
	// warmOps is the untimed op count run before the window. A count, not
	// a duration, so setup_s (bring-up + preload + warm-up) moves when the
	// system gets slower or faster.
	warmOps int
	// streamRate sizes the up-front closed-loop op stream (ops per
	// measured second); a client that exhausts its share wraps around with
	// fresh value ids.
	streamRate int
}

// readTieredRate is the frozen offered rate of read-tiered-open: the largest
// multiple of 500 req/s not above 40 % of the closed-loop throughput this mix
// reached on the reference machine (see README, "Fixed settings").
const readTieredRate = 2000

var specs = []spec{
	{
		name: "mixed-mem",
		keys: 10000, valueBytes: 128, getFrac: 0.5,
		engine: storage.EngineMemory, preload: true,
		warmOps: 12000, streamRate: 30000,
	},
	{
		name: "put-fsync",
		keys: 10000, valueBytes: 128, getFrac: 0,
		engine: storage.EngineMemory, durable: true, fsync: true,
		warmOps: 1500, streamRate: 8000,
	},
	{
		name: "siblings-hot",
		keys: 256, valueBytes: 64, writers: 64, zipf: 1.1, getFrac: 0.45, blindFrac: 10.0 / 55.0,
		engine: storage.EngineMemory, preload: true,
		warmOps: 12000, streamRate: 30000,
	},
	{
		name:     "read-tiered-open",
		openRate: readTieredRate,
		keys:     100000, valueBytes: 256, zipf: 1.1, getFrac: 0.95,
		engine: storage.EngineTiered, durable: true, fsync: false,
		memBudget: 4 << 20, maxInFlight: 64,
		preload: true, warmOps: 3000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// quick shrinks a spec for the tier-1 test: small key spaces and warm-ups so
// all four workloads finish in seconds, and half the open-loop rate so
// a race-detector build keeps up with it.
func (s spec) quick() spec {
	s.openRate /= 2
	if s.engine == storage.EngineTiered {
		s.keys = min(s.keys, 5000)
	} else {
		s.keys = min(s.keys, 2000)
	}
	s.warmOps /= 10
	return s
}

// Op kinds in the packed stream.
const (
	opGet uint8 = iota + 1
	opPut
	opBlindPut
)

// op is one generated operation, packed so a million-op stream costs 12 MB
// and not a heap of strings. id numbers the write (0 for reads); the value a
// put sends is valueFor(id).
type op struct {
	kind   uint8
	writer uint8
	key    uint32
	id     uint32
}

// stream is the up-front generated input of one run.
type stream struct {
	ops      []op
	keyNames []string
	// writes is the number of write ids the stream uses; a wrapped pass adds
	// it to every id so values stay unique.
	writes uint32
	// idBase is the first op write id: preload owns ids 1..keys.
	idBase uint32
	hash   uint64
}

// generate draws n ops from internal/workload with the given seed and packs
// them. The cluster only ever sees these ops.
func generate(s spec, clients int, seed int64, n int) (*stream, error) {
	var dist workload.KeyDist
	if s.zipf > 0 {
		dist = workload.NewZipf(s.keys, s.zipf, seed)
	} else {
		dist = workload.NewUniform(s.keys, seed)
	}
	writers := s.writers
	if writers == 0 {
		writers = clients
	}
	if writers > 255 {
		return nil, fmt.Errorf("workload %s: %d writers do not fit the packed op", s.name, writers)
	}
	gen := workload.NewGenerator(dist, workload.Mix{GetFraction: s.getFrac, BlindFraction: s.blindFrac}, writers, seed^0x5eed)

	st := &stream{ops: make([]op, n), keyNames: make([]string, s.keys), idBase: uint32(s.keys)}
	for i := range st.keyNames {
		st.keyNames[i] = fmt.Sprintf("key-%06d", i)
	}
	h := fnv.New64a()
	var buf [10]byte
	for i := range st.ops {
		g := gen.Next()
		// internal/workload names keys "key-%06d"; the packed form keeps
		// the index and the run uses the shared name table.
		idx, err := strconv.Atoi(g.Key[4:])
		if err != nil || idx >= len(st.keyNames) || st.keyNames[idx] != g.Key {
			return nil, fmt.Errorf("workload %s: unexpected generated key %q", s.name, g.Key)
		}
		o := op{writer: uint8(g.Client), key: uint32(idx)}
		switch g.Kind {
		case workload.OpGet:
			o.kind = opGet
		case workload.OpPut:
			o.kind = opPut
		case workload.OpBlindPut:
			o.kind = opBlindPut
		}
		if o.kind != opGet {
			st.writes++
			o.id = st.idBase + st.writes
		}
		st.ops[i] = o
		buf[0], buf[1] = o.kind, o.writer
		binary.LittleEndian.PutUint32(buf[2:], o.key)
		binary.LittleEndian.PutUint32(buf[6:], o.id)
		h.Write(buf[:])
	}
	st.hash = h.Sum64()
	return st, nil
}

// valueFor builds the unique value of write id: "w%08d" padded to size, the
// same shape internal/workload gives its write identifiers.
func valueFor(id uint32, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = '.'
	}
	v[0] = 'w'
	for i := 8; i >= 1; i-- {
		v[i] = byte('0' + id%10)
		id /= 10
	}
	return v
}

// idOf recovers the write id from a value built by valueFor.
func idOf(v []byte) (uint32, bool) {
	if len(v) < 9 || v[0] != 'w' {
		return 0, false
	}
	var n uint32
	for _, c := range v[1:9] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint32(c-'0')
	}
	return n, true
}
