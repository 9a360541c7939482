package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// spreadFile records, per workload and metric, the run-to-run spread measured
// when the bounds were set (README, "How the bounds were derived"). -compare
// reads it to tell "unchanged" from "unresolved".
const spreadFile = "benchmark/spread.json"

type spreadEntry struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"` // (max - min) / median
	Runs   int     `json:"runs"`
}

type spreadDoc map[string]map[string]spreadEntry // workload → metric → entry

// gated indexes the declared end-to-end metrics by name.
func (d *declared) gated() map[string]declaredMetric {
	out := map[string]declaredMetric{}
	for _, m := range d.EndToEnd {
		out[m.Name] = m
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runSpread summarises the end-to-end metrics of several suite documents of
// one commit: median, min, max and (max - min) / median per workload and
// metric, with the bound each spread asks for. It writes the summary to out
// (default: spreadFile) and prints it as a table.
func runSpread(w io.Writer, decl *declared, paths []string, out string) error {
	if len(paths) < 2 {
		return fmt.Errorf("-spread wants at least two suite documents")
	}
	values := map[string]map[string][]float64{}
	for _, p := range paths {
		doc, err := readSuite(p)
		if err != nil {
			return err
		}
		for name, cell := range doc.Workloads {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range cell.EndToEnd.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
		}
	}
	gated := decl.gated()
	doc := spreadDoc{}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tmin\tmax\tspread\tbound\t")
	for _, name := range sortedKeys(values) {
		doc[name] = map[string]spreadEntry{}
		for _, m := range sortedKeys(values[name]) {
			v := values[name][m]
			e := spreadEntry{Median: median(v), Min: slices.Min(v), Max: slices.Max(v), Runs: len(v)}
			if e.Median != 0 {
				e.Spread = (e.Max - e.Min) / e.Median
			}
			doc[name][m] = e
			bound := "ungated"
			if g, ok := gated[m]; ok {
				bound = fmt.Sprintf("%.2f", g.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.3f\t%s\t\n", name, m, e.Median, e.Min, e.Max, e.Spread, bound)
		}
	}
	tw.Flush()
	if out == "" {
		out = spreadFile
	}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(raw, '\n'), 0o644)
}

// runCompare prints one row per (workload, metric) of two suite documents:
// base, new, new/base, the bound and a verdict. A declared end-to-end metric
// is improved or regressed when it moved by more than its bound in that
// direction, unchanged otherwise — or unresolved when the recorded run-to-run
// spread of that metric on that workload exceeds the bound, so a move of
// that size proves nothing. Other metrics are shown ungated. It reports
// whether anything regressed or failed_share rose.
func runCompare(w io.Writer, decl *declared, basePath, newPath string) (regressed bool, err error) {
	base, err := readSuite(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readSuite(newPath)
	if err != nil {
		return false, err
	}
	var spreads spreadDoc
	if raw, rerr := os.ReadFile(spreadFile); rerr == nil {
		if err := json.Unmarshal(raw, &spreads); err != nil {
			return false, fmt.Errorf("%s: %w", spreadFile, err)
		}
	}
	gated := decl.gated()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tbound\tverdict\t")
	for _, name := range sortedKeys(base.Workloads) {
		b, c := base.Workloads[name], cur.Workloads[name]
		if c == nil {
			return false, fmt.Errorf("%s has no workload %s", newPath, name)
		}
		for _, m := range sortedKeys(b.EndToEnd.Metrics) {
			bv := b.EndToEnd.Metrics[m].Value
			cm, ok := c.EndToEnd.Metrics[m]
			if !ok {
				fmt.Fprintf(tw, "%s\t%s\t%.4g\t-\t-\t-\tmissing\t\n", name, m, bv)
				regressed = true
				continue
			}
			ratio := 0.0
			if bv != 0 {
				ratio = cm.Value / bv
			}
			bound, verdict := "-", "ungated"
			if g, ok := gated[m]; ok {
				bound = fmt.Sprintf("%.2f", g.Bound)
				worse := ratio - 1 // relative move in the bad direction
				if g.Better == "higher" {
					worse = 1 - ratio
				}
				switch {
				case spreads[name][m].Spread > g.Bound:
					verdict = "unresolved"
				case worse > g.Bound:
					verdict, regressed = "regressed", true
				case worse < -g.Bound:
					verdict = "improved"
				default:
					verdict = "unchanged"
				}
			}
			if m == "failed_share" && cm.Value > bv {
				verdict, regressed = "regressed", true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.3f\t%s\t%s\t\n", name, m, bv, cm.Value, ratio, bound, verdict)
		}
		if !c.EndToEnd.Correct || (c.PerLayer != nil && !c.PerLayer.Correct) {
			fmt.Fprintf(tw, "%s\tcorrectness\t-\t-\t-\t-\tregressed\t\n", name)
			regressed = true
		}
	}
	tw.Flush()
	return regressed, nil
}
