package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict judges one (workload, end-to-end metric) pair: b against the
// base a. worse is the share of a's median by which b is worse (negative:
// better). Exact metrics — simulated results and counts — regress on any
// worsening at all; the rest regress past their bound, and are unresolved
// when either side's own run-to-run spread is wider than that bound, because
// then "no worse" cannot be told from noise.
func verdict(spec metricSpec, a, b *metricResult) (worse float64, status string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
	}
	if spec.Better == "higher" {
		worse = -worse
	}
	switch {
	case spec.Exact && worse > 0:
		return worse, "regressed"
	case spec.Exact:
		return worse, "ok"
	case worse > spec.Bound:
		return worse, "regressed"
	case spread(a.Runs) > spec.Bound || spread(b.Runs) > spec.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints one row per workload and end-to-end metric and returns 1
// if any regressed.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json NEW.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.Env.CPU != b.Env.CPU || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS || a.Seconds != b.Seconds {
		fmt.Printf("note: environments differ (%s/%d procs/%gs vs %s/%d procs/%gs); host-time rows are not comparable\n",
			a.Env.CPU, a.Env.GOMAXPROCS, a.Seconds, b.Env.CPU, b.Env.GOMAXPROCS, b.Seconds)
	}
	fmt.Printf("%-12s %-20s %14s %14s %10s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "status")
	regressed := 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		if !wb.Correct {
			fmt.Printf("%-12s %d of %d operations failed\n", wl.Name, wb.Failed, wb.Attempted)
			regressed++
		}
		for _, spec := range endToEnd {
			ma, mb := wa.EndToEnd[spec.Name], wb.EndToEnd[spec.Name]
			if ma == nil || mb == nil {
				continue
			}
			_, status := verdict(spec, ma, mb)
			if status == "regressed" {
				regressed++
			}
			bound := fmt.Sprintf("%.0f%%", spec.Bound*100)
			if spec.Exact {
				bound = "exact"
			}
			ratio := 0.0
			if ma.Value != 0 {
				ratio = mb.Value / ma.Value
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %9.4fx %7s  %s\n", wl.Name, spec.Name, ma.Value, mb.Value, ratio, bound, status)
		}
	}
	if regressed > 0 {
		fmt.Printf("%d regression(s)\n", regressed)
		return 1
	}
	return 0
}
