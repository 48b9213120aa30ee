// Command bench is the repository's one benchmark: four named workloads,
// end-to-end metrics from an untraced pass and per-layer metrics from a
// traced pass, with every output checked for correctness. See README.md.
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   one pass (the driver's form)
//	go run ./bench run [-seed N] [-repeat N] [-quick] [-o FILE]    all workloads, both passes
//	go run ./bench compare A.json B.json                          regression table
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	// The load shape belongs to the benchmark, not to the environment: every
	// recorded number was taken with two Ps on a 2-vCPU box, and the workloads
	// size the engine's worker pools to match.
	runtime.GOMAXPROCS(2)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(runAll(os.Args[2:]))
		case "compare":
			os.Exit(compare(os.Args[2:]))
		}
	}
	os.Exit(single(os.Args[1:]))
}

// single runs one pass over one workload and prints its metrics, ending
// with the JSON line the driver reads. It exits 0 on a correct result, 1 when
// a correctness check failed (the result is still printed) or there is no
// result, 2 on bad arguments.
func single(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cfg := runConfig{outDir: outDir}
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.StringVar(&cfg.workload, "workload", "", "warm_timing, warm_data, cold_plan or tenant_mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the op sequence and inputs")
	fs.Float64Var(&cfg.seconds, "seconds", untracedSeconds, "length of the measured window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	cfg.trace = *trace == 1
	pass := runUntraced
	if cfg.trace {
		pass = runTraced
	}
	out, err := pass(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out.print()
	if !out.Correct {
		return 1
	}
	return 0
}
