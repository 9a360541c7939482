package dvv

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	idvv "repro/internal/dvv"
	"repro/internal/dvvset"
	"repro/internal/node"
	"repro/internal/storage"
	"repro/internal/vv"
)

// ---------------------------------------------------------------------------
// Clock layer.
// ---------------------------------------------------------------------------

// ID identifies a node (replica server or client actor).
type ID = dot.ID

// Dot is a globally unique event identifier (node, counter).
type Dot = dot.Dot

// VV is a plain version vector — the causal-past half of a Clock and the
// client-facing causal context.
type VV = vv.VV

// Clock is a dotted version vector: an identifying Dot plus a VV past.
type Clock = idvv.Clock

// Set is a dotted version vector set — the compact representation storing
// a whole sibling set under one clock with the values inline.
type Set[V any] = dvvset.Set[V]

// NewDot builds the event identifier (node, counter).
func NewDot(node ID, counter uint64) Dot { return dot.New(node, counter) }

// NewContext returns an empty causal context (for a first/blind write).
func NewContext() VV { return vv.New() }

// NewClock builds a clock from an identifying dot and a causal past.
func NewClock(d Dot, past VV) Clock { return idvv.New(d, past) }

// NewSet returns an empty dotted version vector set.
func NewSet[V any]() *Set[V] { return dvvset.New[V]() }

// Update tags a client write coordinated by server r: the new clock's dot
// is fresh at r and its past is exactly the client's read context ctx.
func Update(siblings []Clock, ctx VV, r ID) Clock { return idvv.Update(siblings, ctx, r) }

// Put is the full coordinator-side write: Update plus discarding the
// siblings covered by ctx. It returns the new clock and the new sibling
// set (new version first).
func Put(siblings []Clock, ctx VV, r ID) (Clock, []Clock) { return idvv.Put(siblings, ctx, r) }

// Sync merges the sibling sets of two replicas, discarding versions
// causally dominated by the other side.
func Sync(a, b []Clock) []Clock { return idvv.Sync(a, b) }

// Context returns the causal context covering a sibling set — what a
// reader must present on its next write.
func Context(siblings []Clock) VV { return idvv.Context(siblings) }

// Discard drops the siblings whose identifying events are covered by ctx.
func Discard(siblings []Clock, ctx VV) []Clock { return idvv.Discard(siblings, ctx) }

// JoinVV returns the pointwise maximum of two version vectors.
func JoinVV(a, b VV) VV { return vv.Join(a, b) }

// ---------------------------------------------------------------------------
// Mechanism layer.
// ---------------------------------------------------------------------------

// Mechanism is the pluggable causality-tracking interface used by the
// storage substrate; see internal/core for the contract.
type Mechanism = core.Mechanism

// WriteInfo identifies the parties to a mechanism-level put: the
// coordinating replica server and the writing client.
type WriteInfo = core.WriteInfo

// NewDVVMechanism returns the paper's mechanism: per-version dotted
// version vectors.
func NewDVVMechanism() Mechanism { return core.NewDVV() }

// NewDVVSetMechanism returns the compact dotted-version-vector-set
// mechanism.
func NewDVVSetMechanism() Mechanism { return core.NewDVVSet() }

// NewClientVVMechanism returns the one-entry-per-client version vector
// baseline (precise, unbounded metadata).
func NewClientVVMechanism() Mechanism { return core.NewClientVV() }

// NewServerVVMechanism returns the one-entry-per-server version vector
// baseline (compact, loses concurrent client writes — Figure 1b).
func NewServerVVMechanism() Mechanism { return core.NewServerVV() }

// NewPrunedClientVVMechanism returns the client-VV baseline with
// Riak-style optimistic pruning at cap entries (bounded, unsafe).
func NewPrunedClientVVMechanism(cap int) Mechanism { return core.NewPrunedClientVV(cap) }

// NewVVEMechanism returns the version-vectors-with-exceptions mechanism
// (WinFS baseline: exact, with explicit gap bookkeeping).
func NewVVEMechanism() Mechanism { return core.NewVVE() }

// NewOracleMechanism returns the explicit causal-history oracle (exact,
// ever-growing).
func NewOracleMechanism() Mechanism { return core.NewOracle() }

// Mechanisms returns the standard registry keyed by name.
func Mechanisms() map[string]Mechanism { return core.Registry() }

// ---------------------------------------------------------------------------
// Cluster layer.
// ---------------------------------------------------------------------------

// Cluster is a running set of replica nodes (see internal/cluster).
type Cluster = cluster.Cluster

// ClusterConfig parameterises NewCluster.
type ClusterConfig = cluster.Config

// Residency policies for ClusterConfig.Engine. Without DataRoot nodes keep
// every key's state in memory whatever the policy. With DataRoot every
// node runs the durable tiered engine (WAL plus on-disk segments):
// EngineMemory gives it no byte budget, so nothing is evicted, and
// EngineTiered bounds resident state to ClusterConfig.MemBudget bytes and
// spills cold states to segments (requires DataRoot). Either way a
// restarted node comes back cold: reads serve states from the segments,
// and a write makes one resident again.
const (
	EngineMemory = storage.EngineMemory
	EngineTiered = storage.EngineTiered
)

// Client is a session-holding store client.
type Client = cluster.Client

// Session enforces session guarantees (read-your-writes, monotonic
// reads) on top of a Client: every request carries the session's
// accumulated causal context as a floor the coordinator must reach
// before answering.
type Session = cluster.Session

// Token is the opaque causal-context token a read returns and a write
// accepts (Riak's vclock shape) — causality that survives any medium
// carrying bytes.
type Token = cluster.Token

// Routing policies for clients.
const (
	RouteCoordinator = cluster.RouteCoordinator
	RouteRandom      = cluster.RouteRandom
	RouteOwner       = cluster.RouteOwner
)

// ReadOptions / WriteOptions carry per-request consistency knobs
// (consistency level or explicit R/W override, not-found handling, the
// write's causal context, the session floor). The zero value defers to
// the cluster's configured quorums.
type (
	ReadOptions  = node.ReadOptions
	WriteOptions = node.WriteOptions
)

// Level is a per-request consistency level for ReadOptions/WriteOptions.
type Level = node.Level

// Per-request consistency levels.
const (
	// LevelDefault uses the cluster's configured R/W quorum.
	LevelDefault = node.LevelDefault
	// LevelOne acks after a single replica — for reads, the coordinator
	// answers from its own store with zero replica round trips when the
	// session floor allows.
	LevelOne = node.LevelOne
	// LevelQuorum requires a majority of N.
	LevelQuorum = node.LevelQuorum
	// LevelAll requires every preference-list member.
	LevelAll = node.LevelAll
)

// ParseLevel parses the CLI spelling of a consistency level
// ("one", "quorum", "all", "default" or empty).
func ParseLevel(s string) (Level, error) { return node.ParseLevel(s) }

// IsNotFound reports whether err is a strict read's not-found error
// (a get with ReadOptions.NotFoundOK unset that found no value).
func IsNotFound(err error) bool { return node.IsNotFound(err) }

// NewCluster builds and starts a cluster of replica nodes.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }
