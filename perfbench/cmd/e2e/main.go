// Command e2e runs the benchmark's untraced workloads and prints their
// end-to-end metrics as one JSON line per workload.
//
//	go run ./cmd/e2e --workload table3-cold --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root (or pass --root). --workload all runs
// every workload in one process, one result line each. The exit code is
// non-zero when set-up fails or any op fails its check.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"marchgen/perfbench/bench"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: table3-cold, simple-lists-cold, serve-mix or all")
	seed := flag.Int64("seed", 1, "seed for list order and the request stream")
	seconds := flag.Int("seconds", 10, "measured seconds per workload")
	trace := flag.Int("trace", 0, "must be 0 (the traced run is cmd/traced)")
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = bench.Workloads
	}
	if *trace != 0 || *seconds < 1 || !slices.Contains(bench.Workloads, names[0]) {
		fmt.Fprintln(os.Stderr, "usage: e2e --workload <table3-cold|simple-lists-cold|serve-mix|all> --seed N --seconds N --trace 0")
		return 2
	}
	code := 0
	for _, w := range names {
		res, err := bench.EndToEnd(context.Background(), *root, w, *seed, time.Duration(*seconds)*time.Second, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w, err)
			return 1
		}
		if len(names) > 1 {
			res.Workload = w
		}
		if err := res.Print(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}
