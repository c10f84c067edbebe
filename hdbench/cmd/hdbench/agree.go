package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"

	"hdmaps/hdbench"
)

// runAgree runs the workloads (all of them, or cfg.Workload alone) as
// two sets, A and B, of `runs` untraced runs each, interleaved
// A B A B … so both sets see the same machine weather, every run a
// fresh process of this binary. It prints, per workload and end-to-end
// metric, both medians, their difference, both quartile spreads and the
// bound, and returns 1 if any difference or any spread (set-up time's
// excepted: only its medians are compared) exceeds the bound. With fewer
// than minSpreadRuns runs per set only the differences count: the
// quartiles of three or four values are their extremes, and one slow
// run would fail a set.
const minSpreadRuns = 5

func runAgree(cfg hdbench.Config, runs int, varySeed bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdbench:", err)
		return 2
	}
	specs := hdbench.Specs
	if cfg.Workload != "" {
		spec := hdbench.SpecByName(cfg.Workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "hdbench: unknown workload %q\n", cfg.Workload)
			return 2
		}
		specs = []*hdbench.Spec{spec}
	}
	type cell struct {
		workload, metric string
		set              int
	}
	values := make(map[cell][]float64)
	for i := 0; i < runs; i++ {
		seed := cfg.Seed
		if varySeed {
			seed += int64(i)
		}
		for set := 0; set < 2; set++ {
			for _, spec := range specs {
				res, err := runOnce(exe, cfg, spec.Name, seed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "hdbench: %s seed %d: %v\n", spec.Name, seed, err)
					return 2
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "hdbench: %s seed %d: %d of %d operations failed\n",
						spec.Name, seed, res.Failed, res.Attempted)
					return 1
				}
				for name, v := range res.Metrics {
					c := cell{spec.Name, name, set}
					values[c] = append(values[c], v.Value)
				}
				fmt.Fprintf(os.Stderr, "run %d/%d set %c %s seed %d ok\n", i+1, runs, 'A'+set, spec.Name, seed)
			}
		}
	}

	status := 0
	fmt.Printf("%-15s %-16s %12s %12s %8s %8s %8s %7s\n",
		"workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound")
	for _, spec := range specs {
		for _, m := range hdbench.EndToEnd {
			a, b := values[cell{spec.Name, m.Name, 0}], values[cell{spec.Name, m.Name, 1}]
			ma, mb := hdbench.Median(a), hdbench.Median(b)
			diff := math.Abs(mb-ma) / ma
			sa, sb := hdbench.Spread(a), hdbench.Spread(b)
			verdict := ""
			if diff > m.Bound || (runs >= minSpreadRuns && m.Name != "setup_s" && math.Max(sa, sb) > m.Bound) {
				verdict = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Printf("%-15s %-16s %12.5g %12.5g %7.2f%% %7.2f%% %7.2f%% %6.1f%%%s\n",
				spec.Name, m.Name, ma, mb, diff*100, sa*100, sb*100, m.Bound*100, verdict)
		}
	}
	return status
}

// runOnce runs one untraced run in a child process and decodes the
// result object on the last line of its output.
func runOnce(exe string, cfg hdbench.Config, workload string, seed int64) (hdbench.Result, error) {
	var res hdbench.Result
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"-rounds", strconv.Itoa(cfg.Rounds), "-trace", "0", "-tmp", cfg.TmpDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return res, err
		}
		return res, fmt.Errorf("no result line: %w", jerr)
	}
	return res, nil
}
