// Command hdbench runs the repository's benchmark (package bench).
//
//	hdbench -workload urban_hot -seed 1 -seconds 20 -trace 0
//
// runs one workload once and prints the run environment, every metric as
// "name value unit", and a JSON result object as the last line; it exits
// non-zero if any operation or output check failed.
//
//	hdbench -agree [-runs 3] [-vary-seed]
//
// runs every workload as two interleaved sets of runs of this same
// binary and exits non-zero if, for any end-to-end metric, the two sets'
// medians differ by more than the metric's bound or (with five or more
// runs per set) a set's quartile spread exceeds it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"hdmaps/hdbench"
)

func main() {
	var cfg hdbench.Config
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the world and the operation stream")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "seconds of rounds to measure")
	flag.IntVar(&cfg.Rounds, "rounds", 0, "measure exactly this many rounds instead of -seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
	flag.StringVar(&cfg.OutDir, "out", "hdbench/out", "directory for trace-<workload>.json")
	flag.StringVar(&cfg.TmpDir, "tmp", ".bench_build/tmp", "scratch directory for directory-backed stores")
	list := flag.Bool("list", false, "list the workloads and exit")
	agree := flag.Bool("agree", false, "run two interleaved sets of runs of every workload and compare them")
	runs := flag.Int("runs", 3, "with -agree: runs per set and workload")
	varySeed := flag.Bool("vary-seed", false, "with -agree: run i of both sets uses seed+i instead of seed")
	flag.Parse()
	cfg.Trace = *trace != 0

	// Two vehicles on two cores: the load generator never asks for more
	// processors than the smallest box the benchmark is meant for has.
	runtime.GOMAXPROCS(2)

	switch {
	case *list:
		for _, s := range hdbench.Specs {
			fmt.Printf("%s: %s\n", s.Name, s.Why)
		}
	case *agree:
		os.Exit(runAgree(cfg, *runs, *varySeed))
	default:
		rep, err := hdbench.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hdbench:", err)
			os.Exit(2)
		}
		if err := rep.Print(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hdbench:", err)
			os.Exit(2)
		}
		if !rep.Correct() {
			os.Exit(1)
		}
	}
}
