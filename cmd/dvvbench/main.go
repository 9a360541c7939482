// Command dvvbench regenerates the paper's tables and figures (see the
// experiment index in DESIGN.md and the results in EXPERIMENTS.md).
//
// Usage:
//
//	dvvbench -experiment all            # every table
//	dvvbench -experiment fig1           # Figure 1 replay (3 panels)
//	dvvbench -experiment verdict        # Figure 1 verdict summary
//	dvvbench -experiment compare        # C1: O(1) vs O(n) check cost
//	dvvbench -experiment metadata       # C2: metadata vs writer count
//	dvvbench -experiment siblings       # C2b: sibling counts
//	dvvbench -experiment riak           # C3: cluster latency/traffic
//	dvvbench -experiment pruning        # C4: pruning safety
//	dvvbench -experiment ablation       # A1: DVV vs DVVSet
//	dvvbench -experiment churn          # E1: elastic membership under writes
//	dvvbench -experiment nemesis        # E4: partition convergence under a fault-injecting nemesis
//	dvvbench -experiment tiered         # D4: tiered engine, bounded budget vs none
//	dvvbench -experiment merkle         # E5: anti-entropy repair cost of the hash-tree walk
//	dvvbench -experiment sessions       # E6: causal sessions + per-request consistency levels
//	dvvbench -experiment overload       # E7: open-loop overload + sick replica, protected vs unprotected
//	dvvbench -churn                     # shorthand for -experiment churn
//	dvvbench -experiment nemesis -seed 7  # any experiment, reproducible fault/workload schedule
//	dvvbench -experiment nemesis -skew 30s  # nemesis with ±30s clock skew across nodes
//	dvvbench -experiment riak -csv      # CSV instead of aligned text
//	dvvbench -json > BENCH_N.json       # machine-readable snapshot of all tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dvvbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dvvbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "fig1|verdict|compare|metadata|siblings|riak|pruning|ablation|churn|crash|durability|nemesis|tiered|merkle|sessions|overload|all")
		churn      = fs.Bool("churn", false, "shorthand for -experiment churn (elastic membership scenario)")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = fs.Bool("json", false, "emit one JSON document with every table (for BENCH_*.json trajectory snapshots)")
		seed       = fs.Int64("seed", 42, "seed for every randomised experiment (fig1, verdict and compare are deterministic replays)")
		ops        = fs.Int("ops", 0, "override operation count (riak)")
		clients    = fs.Int("clients", 0, "override client count (riak)")
		nodes      = fs.Int("nodes", 0, "override node count (riak)")
		skew       = fs.Duration("skew", 0, "inject ±skew clock offsets across nodes (nemesis)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// jsonTable is one experiment table in the -json snapshot format;
	// BENCH_*.json files checked in per PR are arrays of these, so future
	// sessions can diff benchmark trajectories mechanically.
	type jsonTable struct {
		Experiment string     `json:"experiment"`
		Title      string     `json:"title"`
		Headers    []string   `json:"headers"`
		Rows       [][]string `json:"rows"`
	}
	var collected []jsonTable
	current := ""

	emit := func(tables ...*stats.Table) {
		for _, t := range tables {
			switch {
			case *jsonOut:
				rows := t.Rows
				if rows == nil {
					rows = [][]string{}
				}
				collected = append(collected, jsonTable{
					Experiment: current, Title: t.Title, Headers: t.Headers, Rows: rows,
				})
			case *csv:
				fmt.Println("# " + t.Title)
				fmt.Print(t.CSV())
			default:
				fmt.Println(t.String())
			}
		}
	}

	runOne := func(name string) error {
		current = name
		start := time.Now()
		switch name {
		case "fig1":
			emit(sim.RunFigure1())
		case "verdict":
			emit(sim.Figure1Verdict())
		case "compare":
			emit(sim.RunCompareCost(sim.DefaultCompareConfig()))
		case "metadata":
			cfg := sim.DefaultMetadataConfig()
			cfg.Seed = *seed
			emit(sim.RunMetadataSweep(cfg))
		case "siblings":
			cfg := sim.DefaultMetadataConfig()
			cfg.Seed = *seed
			emit(sim.RunSiblingSweep(cfg))
		case "riak":
			cfg := sim.DefaultRiakConfig()
			cfg.Seed = *seed
			if *ops > 0 {
				cfg.Ops = *ops
			}
			if *clients > 0 {
				cfg.Clients = *clients
			}
			if *nodes > 0 {
				cfg.Nodes = *nodes
			}
			_, table, err := sim.RunRiak(cfg)
			if err != nil {
				return err
			}
			emit(table)
		case "pruning":
			cfg := sim.DefaultPruningConfig()
			cfg.Seed = *seed
			emit(sim.RunPruningSafety(cfg))
		case "churn":
			cfg := sim.DefaultChurnConfig()
			cfg.Seed = *seed
			if *clients > 0 {
				cfg.Clients = *clients
			}
			_, table, err := sim.RunChurn(cfg)
			if err != nil {
				return err
			}
			emit(table)
		case "crash":
			cfg := sim.DefaultCrashConfig()
			cfg.Seed = *seed
			if *clients > 0 {
				cfg.Clients = *clients
			}
			_, table, err := sim.RunCrash(cfg)
			if err != nil {
				return err
			}
			emit(table)
		case "durability":
			cfg := sim.DefaultDurabilityConfig()
			cfg.Seed = *seed
			table, err := sim.RunDurabilityOverhead(cfg)
			if err != nil {
				return err
			}
			emit(table)
		case "tiered":
			cfg := sim.DefaultTieredConfig()
			cfg.Seed = *seed
			table, err := sim.RunTieredStorage(cfg)
			if err != nil {
				return err
			}
			emit(table)
		case "merkle":
			cfg := sim.DefaultMerkleConfig()
			cfg.Seed = *seed
			_, table, err := sim.RunMerkleAE(cfg)
			if err != nil {
				return err
			}
			emit(table)
		case "sessions":
			cfg := sim.DefaultSessionsConfig()
			cfg.Seed = *seed
			if *nodes > 0 {
				cfg.Nodes = *nodes
			}
			_, table, err := sim.RunSessions(cfg)
			if err != nil {
				return err
			}
			emit(table)
		case "nemesis":
			cfg := sim.DefaultNemesisConfig()
			cfg.Seed = *seed
			if *nodes > 0 {
				cfg.Nodes = *nodes
			}
			cfg.ClockSkew = *skew
			_, table, err := sim.RunNemesis(cfg)
			if err != nil {
				return err
			}
			emit(table)
		case "overload":
			cfg := sim.DefaultOverloadConfig()
			cfg.Seed = *seed
			if *nodes > 0 {
				cfg.Nodes = *nodes
			}
			_, table, err := sim.RunOverload(cfg)
			if err != nil {
				return err
			}
			emit(table)
		case "ablation":
			acfg := sim.DefaultAblationConfig()
			acfg.Seed = *seed
			emit(sim.RunDVVSetAblation(acfg), sim.RunAblationTrace(acfg))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Fprintf(os.Stderr, "[%s finished in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	finish := func() error {
		if !*jsonOut {
			return nil
		}
		out, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}

	if *churn {
		*experiment = "churn"
	}
	if *experiment == "all" {
		for _, name := range []string{"fig1", "verdict", "compare", "metadata", "siblings", "riak", "pruning", "ablation", "churn", "crash", "durability", "tiered", "nemesis", "merkle", "sessions", "overload"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return finish()
	}
	if err := runOne(*experiment); err != nil {
		return err
	}
	return finish()
}
