// Command blinkbench regenerates the paper's tables and figures, and hosts
// the bench modes that still back a CI *-smoke gate (the repo's tracked
// benchmark is ./bench; see bench/README.md).
//
// Usage:
//
//	blinkbench -exp all                        # every experiment, paper order
//	blinkbench -exp fig15                      # one experiment
//	blinkbench -list                           # available experiment IDs
//	blinkbench -async -o BENCH_async.json            # async-stream overlap + dispatch throughput
//	blinkbench -obs -o BENCH_obs.txt                 # replay-determinism gate + metrics + span dump
//	blinkbench -compile -o BENCH_compile.json        # staged compile: fast path + incremental repair
//	blinkbench -compilesmoke                         # CI gate: fast path >=2x, incremental repair >=10x
//	blinkbench -store -o BENCH_planStore.json        # tiered plan cache: compile vs disk vs memory vs blinkd
//	blinkbench -storesmoke                           # CI gate: warm-disk cold-start >=10x vs cold compile
//	blinkbench -tenants -o BENCH_tenants.json        # multi-tenant QoS: latency-critical p99 vs FIFO at 100-1000 tenants
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"blink/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	async := flag.Bool("async", false, "benchmark async-stream overlap and dispatch throughput and emit JSON")
	obsFlag := flag.Bool("obs", false, "run the seeded replay-determinism gate and emit metrics + span dump")
	compileFlag := flag.Bool("compile", false, "benchmark the staged compile pipeline (fast path, incremental repair) and emit JSON")
	compileSmoke := flag.Bool("compilesmoke", false, "gate the fast-path (>=2x) and incremental-repair (>=10x) speedups, exit non-zero on failure")
	storeFlag := flag.Bool("store", false, "benchmark cold compile vs warm-disk cold-start vs warm-memory replay vs blinkd round-trip and emit JSON")
	storeSmoke := flag.Bool("storesmoke", false, "gate warm-disk cold-start >=10x faster than cold compile, exit non-zero on failure")
	tenantsFlag := flag.Bool("tenants", false, "benchmark latency-critical p99 under 100-1000 tenant mixed load (lanes vs FIFO) and emit JSON; exits non-zero if the QoS gate fails")
	out := flag.String("o", "-", "output path for -async/-obs/-compile/-store/-tenants ('-' = stdout)")
	flag.Parse()

	if *async {
		asyncMain(*out)
		return
	}
	if *obsFlag {
		obsMain(*out)
		return
	}
	if *compileFlag {
		compileMain(*out)
		return
	}
	if *compileSmoke {
		if err := compileCheck(); err != nil {
			fmt.Fprintf(os.Stderr, "compile-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storeFlag {
		storeMain(*out)
		return
	}
	if *storeSmoke {
		if err := storeCheck(); err != nil {
			fmt.Fprintf(os.Stderr, "store-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tenantsFlag {
		tenantsMain(*out)
		return
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	}

	run := func(r experiments.Runner) {
		t, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			os.Exit(1)
		}
		t.Fprint(os.Stdout)
	}

	if *exp == "all" {
		for _, r := range experiments.All() {
			run(r)
		}
		return
	}
	r, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	run(r)
}

// writeReport runs a benchmark against path (or stdout when path is "-"),
// exiting non-zero on any failure.
func writeReport(path, prefix string, run func(io.Writer) error) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	var f *os.File
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			fail(err)
		}
		w = f
	}
	if err := run(w); err != nil {
		fail(err)
	}
	if f != nil {
		// A deferred-write failure (full disk, NFS) surfaces at Close; a
		// truncated report must not exit 0.
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}
