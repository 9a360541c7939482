package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// suiteDoc is the ledger: every workload's untraced and traced result,
// stamped. -compare and -spread read it.
type suiteDoc struct {
	Stamp     stamp                 `json:"stamp"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Workloads map[string]*suiteCell `json:"workloads"`
}

type suiteCell struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// runSuite runs every declared workload, untraced then traced, each in a
// fresh child process so heap and allocation counters do not carry over.
func runSuite(decl *declared, seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := suiteDoc{Stamp: newStamp(), Seed: seed, Seconds: seconds, Workloads: map[string]*suiteCell{}}
	for _, w := range decl.Workloads {
		cell := &suiteCell{}
		for _, traced := range []int{0, 1} {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("workload %s (trace %d): %w", w.Name, traced, err)
			}
			// The child prints the full result, then the contract line.
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if len(lines) < 2 {
				return fmt.Errorf("workload %s (trace %d): no result printed", w.Name, traced)
			}
			var res result
			if err := json.Unmarshal(lines[len(lines)-2], &res); err != nil {
				return fmt.Errorf("workload %s (trace %d): %w", w.Name, traced, err)
			}
			if traced == 0 {
				cell.EndToEnd = &res
			} else {
				cell.PerLayer = &res
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d done (correct=%v failed=%d)\n", w.Name, traced, res.Correct, res.Failed)
		}
		doc.Workloads[w.Name] = cell
	}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if out != "" {
		return os.WriteFile(out, append(raw, '\n'), 0o644)
	}
	fmt.Printf("%s\n", raw)
	return nil
}

func readSuite(path string) (*suiteDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc suiteDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// commitID is the checkout's commit, read from .git in the working
// directory, or "unknown" where there is none (the benchmark driver's checkout
// is not a repository).
func commitID() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(id, "ref: "); ok {
		raw, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		id = strings.TrimSpace(string(raw))
	}
	return id[:min(len(id), 12)]
}
