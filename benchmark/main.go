// Command benchmark is the repository's single performance ledger: four
// workloads against a three-node TCP cluster in this process, a correctness
// gate in every run, end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. BENCHMARK.json at the repository root declares
// the metrics, their bounds and the command; README.md here explains them.
//
//	bash benchmark/run.sh --workload mixed-mem --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -suite -out ledger.json      # every workload, both modes
//	bash benchmark/run.sh -compare a.json b.json       # verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupRepeats is how many times a run sets its cluster up; setup_s is the
// median.
const setupRepeats = 3

// declared is BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDeclared(path string) (*declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// contractLine is the last line of a single-workload run: exactly the keys
// the benchmark contract names, with exactly the declared metrics of the
// run's mode.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toContract(res *result, want []declaredMetric) (contractLine, error) {
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return line, fmt.Errorf("workload %s did not produce declared metric %s", res.Workload, m.Name)
		}
		line.Metrics[m.Name] = contractMetric{Value: got.Value, Unit: m.Unit}
	}
	return line, nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the contract line last")
		seed         = flag.Int64("seed", 1, "seed of the generated op stream")
		seconds      = flag.Float64("seconds", 10, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics")
		spansOut     = flag.String("spans", "", "with -trace 1: write the raw spans to this file")
		quick        = flag.Bool("quick", false, "smoke mode: 1 s window, small key spaces, one set-up, short probes")
		rate         = flag.Int("rate", -1, "override the open-loop rate; 0 runs the workload closed-loop (calibration)")
		suite        = flag.Bool("suite", false, "run every workload untraced and traced, each in a child process, and print one document")
		out          = flag.String("out", "", "with -suite or -spread: write the document to this file")
		compare      = flag.Bool("compare", false, "compare two suite documents: -compare base.json new.json")
		spread       = flag.Bool("spread", false, "summarise run-to-run spread of suite documents: -spread r1.json r2.json ...")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare wants two suite documents"))
		}
		regressed, err := runCompare(os.Stdout, decl, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *spread:
		if err := runSpread(os.Stdout, decl, flag.Args(), *out); err != nil {
			fail(err)
		}
	case *suite:
		if err := runSuite(decl, *seed, *seconds, *out); err != nil {
			fail(err)
		}
	default:
		s, ok := specByName(*workloadName)
		if !ok {
			fail(fmt.Errorf("unknown workload %q; BENCHMARK.json lists them", *workloadName))
		}
		if *rate == 0 {
			s.openRate, s.streamRate = 0, 30000
		} else if *rate > 0 {
			s.openRate = *rate
		}
		root, err := dataRootFor()
		if err != nil {
			fail(err)
		}
		cfg := runConfig{spec: s, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
			setups: setupRepeats, dataRoot: root, trace: *trace != 0, spansOut: *spansOut}
		if *quick {
			cfg.spec, cfg.window, cfg.setups, cfg.probeBudget = s.quick(), time.Second, 1, 10*time.Millisecond
		}
		res, want, err := runOne(cfg, decl)
		os.RemoveAll(root)
		settleDisk()
		if err != nil {
			fail(err)
		}
		if !emit(res, want) {
			os.Exit(1)
		}
	}
}

// runOne runs the mode the config selects and names the declared metrics
// that mode must report.
func runOne(cfg runConfig, decl *declared) (*result, []declaredMetric, error) {
	if cfg.trace {
		res, err := runTraced(cfg)
		return res, decl.PerLayer, err
	}
	res, err := runWorkload(cfg)
	return res, decl.EndToEnd, err
}

// emit prints the full result, then the contract line, and reports whether
// the run may exit zero: the correctness gate passed and every declared
// metric is there.
func emit(res *result, want []declaredMetric) bool {
	full, _ := json.Marshal(struct {
		Stamp stamp `json:"stamp"`
		*result
	}{newStamp(), res})
	fmt.Printf("%s\n", full)
	line, err := toContract(res, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: correctness gate failed on %s: %+v\n", res.Workload, res.Check)
	}
	last, _ := json.Marshal(line)
	fmt.Printf("%s\n", last)
	return res.Correct
}

// stamp says where and on what a document was measured.
type stamp struct {
	Machine   string `json:"machine"`
	Commit    string `json:"commit"`
	Go        string `json:"go"`
	NProc     int    `json:"nproc"`
	GoMaxProc int    `json:"gomaxprocs"`
	Time      string `json:"time"`
}

func newStamp() stamp {
	host, _ := os.Hostname()
	return stamp{
		Machine: fmt.Sprintf("%s %s/%s", host, runtime.GOOS, runtime.GOARCH), Commit: commitID(),
		Go: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProc: runtime.GOMAXPROCS(0),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}
