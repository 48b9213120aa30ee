// Command blinkbench regenerates the paper's tables and figures (the repo's
// tracked benchmark is ./bench; see bench/README.md).
//
// Usage:
//
//	blinkbench -exp all                        # every experiment, paper order
//	blinkbench -exp fig15                      # one experiment
//	blinkbench -list                           # available experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"

	"blink/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

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
