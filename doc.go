// Package dvv is a Go implementation of dotted version vectors (Preguiça,
// Baquero, Almeida, Fonte, Gonçalves — "Brief Announcement: Efficient
// Causality Tracking in Distributed Storage Systems With Dotted Version
// Vectors", PODC 2012), together with the replicated-storage substrate the
// paper evaluates on and every baseline it compares against.
//
// The package re-exports the core clock API and the cluster substrate so
// applications can depend on a single import:
//
//	c1, s := dvv.Put(nil, dvv.NewContext(), "serverA")   // first write
//	ctx := dvv.Context(s)                                 // client context
//	c2, s := dvv.Put(s, ctx, "serverA")                   // overwrite
//	_ = c1.Before(c2)                                     // O(1) causality
//
// Three layers are exposed:
//
//   - Clock layer: Clock, VV, Dot and the server-side kernel (Update,
//     Sync, Context, Discard) — the paper's contribution in its purest
//     form (internal/dvv).
//   - Mechanism layer: the pluggable causality interface with DVV, DVVSet,
//     client-VV, server-VV, pruned-VV and causal-history implementations
//     (internal/core), used by the storage engine.
//   - Cluster layer: replica nodes, consistent-hashing ring, quorum
//     coordination, read repair and anti-entropy over in-memory or TCP
//     transports (internal/cluster et al.).
//
// The clock kernel underneath all three layers stores version vectors as
// sorted {ID, Counter} entry slices (internal/vv), not maps: iteration is
// already in canonical encoding order, lookups are binary searches, and
// the lattice operations (Join, Merge, Descends, Compare) are linear
// two-pointer walks. Clone and Join are single-allocation at any width and
// the comparison family never allocates, so clock bookkeeping stays off
// the allocator on the request path; the wire codec encodes straight from
// the entries and decodes into a pre-sized slice, interning replica ids so
// a wide vector costs one string allocation per distinct id ever seen, not
// per entry.
//
// Each replica's local state lives in a sharded storage engine
// (internal/storage): keys hash onto a power-of-two array of shards, each
// with its own RWMutex, so concurrent request handlers only contend when
// they touch the same slice of the keyspace. Per-key operations are
// linearizable per key; whole-store walks (key listing, metadata
// accounting, persistence, anti-entropy scans) proceed shard by shard and
// are per-shard-consistent rather than point-in-time — the anti-entropy
// protocol reconverges across rounds by construction. Nodes run
// storage.DefaultShards shards; one shard reproduces the classic
// single-mutex store.
//
// The cluster is elastic: nodes join and leave at runtime
// (cluster.AddNode/RemoveNode in-process; member.join/member.leave gossip
// over TCP), with a handoff protocol that streams re-owned keys to their
// new owners and sloppy quorums + hinted handoff keeping writes
// acknowledged while members fail or depart. Dotted version vectors make
// this safe by construction — causality is tracked per replica server, so
// a key moving between servers keeps an exact clock.
//
// Inter-replica traffic moves over a multiplexed transport
// (transport.Mux): one long-lived TCP connection per peer pair carries
// concurrent in-flight requests correlated by id, a writer goroutine
// coalesces queued frames into single kernel writes, and request
// deadlines fail requests without tearing the shared connection down.
// Above it, replica-state pushes — put fan-out, read repair, hints,
// anti-entropy, handoff — coalesce per destination into batched repl.batch
// frames (node.DefaultReplBatchKeys), cutting messages per acknowledged put by
// more than half under concurrency. The benchmark ledger in benchmark/
// measures the whole path over real TCP loopback.
//
// Replicas are crash-safe when given a data directory (storage.Open,
// node.Config.DataDir, dvvstore -data): every mutation is written ahead
// to a CRC-framed, group-committed log before it is installed or acked,
// checkpoints spill dirty states to on-disk segments and truncate the log,
// and recovery indexes the segments, then replays the WAL through the
// mechanism's Sync merge —
// idempotent, torn-tail tolerant, and dot-counter safe, so a restarted
// replica never re-mints a dot it issued before the crash.
//
// The experiment harness that regenerates the paper's figures lives in
// internal/sim and is exposed through cmd/dvvbench; EXPERIMENTS.md records
// paper-vs-measured results.
//
// ARCHITECTURE.md in the repository root maps every layer and walks the
// four request lifecycles (quorum put, quorum get + read repair, hinted
// handoff, Merkle anti-entropy) with the functions that implement them;
// runnable usage lives in example_test.go and examples/.
package dvv
