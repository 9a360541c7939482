// Command dvvstore runs a real replicated key-value store over TCP with
// dotted-version-vector causality — a minimal Riak-like deployment of the
// library.
//
// Start a three-node cluster (each in its own terminal or backgrounded):
//
//	dvvstore serve -id n0 -listen 127.0.0.1:7001 -peers n0=127.0.0.1:7001,n1=127.0.0.1:7002,n2=127.0.0.1:7003
//	dvvstore serve -id n1 -listen 127.0.0.1:7002 -peers n0=127.0.0.1:7001,n1=127.0.0.1:7002,n2=127.0.0.1:7003
//	dvvstore serve -id n2 -listen 127.0.0.1:7003 -peers n0=127.0.0.1:7001,n1=127.0.0.1:7002,n2=127.0.0.1:7003
//
// Then use the client:
//
//	dvvstore put -addr 127.0.0.1:7001 -key greeting -value hello
//	dvvstore get -addr 127.0.0.1:7001 -key greeting
//	dvvstore put -addr 127.0.0.1:7001 -key greeting -value hi -context <ctx from get>
//
// Get prints the sibling values and an opaque causal context (hex); pass
// that context to put to overwrite what was read. Puts without a context
// are blind writes and fork siblings.
//
// With -data DIR the node is durable: acknowledged writes go through a
// write-ahead log (fsynced per group commit under -fsync, the default),
// SIGTERM checkpoints the log into on-disk segments, and a restart with
// the same -id and -data recovers the pre-crash state — tolerating a
// torn log tail from a hard kill — before serving. States come back cold:
// reads serve them from the segments, and a write makes one resident.
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
	"repro/internal/ring"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dvvstore:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return errors.New("usage: dvvstore serve|get|put|stats [flags]")
	}
	switch args[0] {
	case "serve":
		return serve(args[1:])
	case "get":
		return clientGet(args[1:])
	case "put":
		return clientPut(args[1:])
	case "stats":
		return clientStats(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func parsePeers(s string) (map[dot.ID]string, error) {
	out := make(map[dot.ID]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		out[dot.ID(id)] = addr
	}
	return out, nil
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		id     = fs.String("id", "n0", "node id")
		listen = fs.String("listen", "127.0.0.1:7001", "listen address")
		peers  = fs.String("peers", "", "comma-separated id=host:port list including self")
		join   = fs.String("join", "", "host:port of an existing member to join; membership then gossips in (alternative to -peers)")
		n      = fs.Int("n", 3, "replication degree")
		r      = fs.Int("r", 2, "read quorum")
		w      = fs.Int("w", 2, "write quorum")
		ae     = fs.Duration("anti-entropy", 5*time.Second, "anti-entropy interval (0 disables)")
		mech   = fs.String("mechanism", "dvv", "causality mechanism (dvv|dvvset|clientvv|servervv|oracle)")
		sloppy = fs.Bool("sloppy", true, "sloppy quorums: unreachable replicas fall back down the ring with a hint")
		data   = fs.String("data", "", "data directory: persist with a write-ahead log and spill segments, recovering state on restart (empty = in-memory)")
		fsync  = fs.Bool("fsync", true, "fsync every WAL commit before acking a write (with -data); off trades the unsynced tail for latency")
		engine = fs.String("engine", "memory", "residency policy of the on-disk engine (with -data): memory (no byte budget: nothing is evicted) or tiered (byte-budgeted hot cache); after a restart both come back cold: reads serve states from the segments, and a write makes one resident")
		budget = fs.Int64("mem-budget", 0, "tiered engine hot-cache byte budget (0 = default 64 MiB)")

		maxInflight = fs.Int("max-inflight", 0, "admission control: max in-flight coordinator requests; excess queue briefly, then shed with an overload error (0 disables)")
		queueTarget = fs.Duration("queue-target", 0, "admission queue-delay bound before a queued request is shed (with -max-inflight; 0 = 5ms)")
		hedged      = fs.Bool("hedged-reads", false, "hedge quorum reads: contact need-1 replicas, launch one extra after the p99-derived hedge delay")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	if len(addrs) == 0 {
		addrs = map[dot.ID]string{dot.ID(*id): *listen}
	}
	addrs[dot.ID(*id)] = *listen
	m, ok := core.Registry()[*mech]
	if !ok {
		return fmt.Errorf("unknown mechanism %q", *mech)
	}
	tcp := transport.NewMux(dot.ID(*id), addrs)
	if err := tcp.Listen(); err != nil {
		return err
	}
	defer tcp.Close()
	rg := ring.New(0)
	for peer := range addrs {
		rg.Add(peer)
	}
	// Quorums are configured for the target replication degree, not
	// clamped to the seed peer list: a joining node starts with a
	// one-member ring that grows as membership gossips in.
	nd, err := node.New(node.Config{
		ID: dot.ID(*id), Mech: m, Transport: tcp, Ring: rg,
		N: *n, R: *r, W: *w,
		Timeout: 5 * time.Second, ReadRepair: true,
		AntiEntropyInterval: *ae,
		HintedHandoff:       true,
		SloppyQuorum:        *sloppy,
		SuspicionWindow:     2 * time.Second,
		Addr:                tcp.Addr(),
		DataDir:             *data,
		Fsync:               *fsync,
		Engine:              *engine,
		MemBudget:           *budget,
		MaxInFlight:         *maxInflight,
		QueueTarget:         *queueTarget,
		HedgedReads:         *hedged,
	})
	if err != nil {
		return err
	}
	defer nd.Close()
	if *data != "" {
		rec := nd.Store().Recovery()
		fmt.Printf("dvvstore: durable in %s (engine=%s fsync=%v): recovered %d keys (%d base keys, %d WAL records, %d torn bytes truncated)\n",
			*data, nd.Store().Name(), *fsync, nd.Store().Len(), rec.SnapshotKeys, rec.WALRecords, rec.TornBytes)
	}
	if *join != "" {
		// The joiner only knows a host:port; a throwaway peer entry lets
		// the join RPC through, and the response carries the real
		// membership (ids and addresses).
		const seedID = dot.ID("??join-seed")
		tcp.SetAddr(seedID, *join)
		jctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := nd.JoinCluster(jctx, seedID)
		cancel()
		tcp.Deregister(seedID)
		if err != nil {
			return fmt.Errorf("join %s: %w", *join, err)
		}
		fmt.Printf("dvvstore: joined cluster via %s: members %v\n", *join, rg.Members())
	}
	fmt.Printf("dvvstore: node %s serving on %s (mechanism=%s N=%d R=%d W=%d, %d members)\n",
		*id, tcp.Addr(), *mech, *n, *r, *w, rg.Size())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	if rg.Size() > 1 {
		// Graceful departure: stream owned keys to their new owners, drain
		// hints, announce the leave.
		fmt.Println("dvvstore: leaving cluster (handing off keys)")
		lctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := nd.Leave(lctx); err != nil {
			fmt.Fprintln(os.Stderr, "dvvstore: leave:", err)
		}
		cancel()
	}
	if *data != "" {
		// Final checkpoint: spill dirty states to segments and truncate
		// the WAL so the next start replays nothing.
		fmt.Println("dvvstore: checkpointing store")
		if err := nd.Store().Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "dvvstore: checkpoint:", err)
		}
	}
	fmt.Println("dvvstore: shutting down")
	return nil
}

// clientTransport builds a one-shot dial-only client transport to addr.
func clientTransport(addr string) (*transport.Mux, dot.ID) {
	server := dot.ID("server")
	return transport.NewMux("cli", map[dot.ID]string{server: addr}), server
}

func clientGet(args []string) error {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:7001", "any node address")
		key    = fs.String("key", "", "key to read")
		level  = fs.String("consistency", "", "read consistency level: one, quorum, all or default (the node's configured R)")
		nfOK   = fs.Bool("notfound-ok", true, "treat a missing key as an empty success; with =false a miss is an error")
		ctxHex = fs.String("context", "", "session floor (hex context from a previous get/put): the read blocks until the answer dominates it")
		mech   = fs.String("mechanism", "dvv", "mechanism the cluster runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *key == "" {
		return errors.New("get: -key required")
	}
	m, ok := core.Registry()[*mech]
	if !ok {
		return fmt.Errorf("unknown mechanism %q", *mech)
	}
	lvl, err := node.ParseLevel(*level)
	if err != nil {
		return err
	}
	opts := node.ReadOptions{Level: lvl, NotFoundOK: *nfOK}
	if *ctxHex != "" {
		sess, err := decodeHexContext(m, *ctxHex)
		if err != nil {
			return fmt.Errorf("get: bad -context: %w", err)
		}
		opts.Session = sess
	}
	t, server := clientTransport(*addr)
	defer t.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := t.Send(ctx, "cli", server, transport.Request{
		Method: node.MethodGet, Body: node.EncodeGetRequest(m, *key, opts),
	})
	if err != nil {
		return err
	}
	if aerr := transport.AppError(resp); aerr != nil {
		return aerr
	}
	rr, err := node.DecodeReadResult(m, resp.Body)
	if err != nil {
		return err
	}
	if len(rr.Values) == 0 {
		fmt.Println("(not found)")
	}
	for i, v := range rr.Values {
		fmt.Printf("value[%d]: %s\n", i, v)
	}
	fmt.Printf("context: %s\n", hex.EncodeToString(node.EncodeContextToken(m, rr.Ctx)))
	return nil
}

// decodeHexContext parses the hex token printed by get/put ("context:"
// lines) back into a mechanism context — exactly the bytes the token
// carries, so get output and put/get input round-trip verbatim.
func decodeHexContext(m core.Mechanism, s string) (core.Context, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, err
	}
	return node.DecodeContextToken(m, raw)
}

func clientPut(args []string) error {
	fs := flag.NewFlagSet("put", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:7001", "any node address")
		key    = fs.String("key", "", "key to write")
		value  = fs.String("value", "", "value to write")
		ctxHex = fs.String("context", "", "causal context from a previous get (hex); empty = blind write")
		level  = fs.String("consistency", "", "write consistency level: one, quorum, all or default (the node's configured W)")
		client = fs.String("client", "cli", "client identity")
		mech   = fs.String("mechanism", "dvv", "mechanism the cluster runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *key == "" {
		return errors.New("put: -key required")
	}
	m, ok := core.Registry()[*mech]
	if !ok {
		return fmt.Errorf("unknown mechanism %q", *mech)
	}
	lvl, err := node.ParseLevel(*level)
	if err != nil {
		return err
	}
	opts := node.WriteOptions{Level: lvl}
	if *ctxHex != "" {
		wctx, err := decodeHexContext(m, *ctxHex)
		if err != nil {
			return fmt.Errorf("put: bad -context: %w", err)
		}
		opts.Context = wctx
	}
	t, server := clientTransport(*addr)
	defer t.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := t.Send(ctx, dot.ID(*client), server, transport.Request{
		Method: node.MethodPut,
		Body:   node.EncodePutRequest(m, *key, []byte(*value), dot.ID(*client), opts),
	})
	if err != nil {
		return err
	}
	if aerr := transport.AppError(resp); aerr != nil {
		return aerr
	}
	rr, err := node.DecodeReadResult(m, resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("ok: %d sibling(s) after write\n", len(rr.Values))
	fmt.Printf("context: %s\n", hex.EncodeToString(node.EncodeContextToken(m, rr.Ctx)))
	return nil
}

func clientStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7001", "node address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, server := clientTransport(*addr)
	defer t.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := t.Send(ctx, "cli", server, transport.Request{Method: node.MethodStats})
	if err != nil {
		return err
	}
	if aerr := transport.AppError(resp); aerr != nil {
		return aerr
	}
	st, err := node.DecodeStats(resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("%+v\n", st)
	fmt.Printf("sessions: waits=%d retries=%d\n", st.SessionWaits, st.SessionRetries)
	return nil
}
