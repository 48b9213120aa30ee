package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// Window lengths are the benchmark's, not the caller's: the same on every
// commit that is compared. -quick swaps in smoke windows.
const (
	untracedSeconds = 20.0
	tracedSeconds   = 8.0
	quickSeconds    = 1.0
	outDir          = "bench/out" // trace files, temporary plan stores, default result file
)

// metricResult is one metric across the repeats of a `run`: the median,
// the quartiles, and every run's value.
type metricResult struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	Runs  []float64 `json:"runs"`
}

type workloadResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	EndToEnd  map[string]*metricResult `json:"end_to_end"`
	PerLayer  map[string]*metricResult `json:"per_layer"`
}

// resultFile is what `run` writes and `compare` reads.
type resultFile struct {
	Env          envBlock                   `json:"env"`
	Seconds      float64                    `json:"seconds"`
	TraceSeconds float64                    `json:"trace_seconds"`
	Repeat       int                        `json:"repeat"`
	Workloads    map[string]*workloadResult `json:"workloads"`
}

// runAll runs every workload in a child process of its own — so that set-up
// time and peak memory are per workload — first untraced, then traced, and
// repeats the whole set -repeat times, interleaved, so that drift on the
// machine spreads over all workloads alike.
func runAll(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed for op sequences and inputs")
	repeat := fs.Int("repeat", 1, "how many interleaved full sets to run")
	quick := fs.Bool("quick", false, "smoke run: 1 s windows, one set-up")
	outPath := fs.String("o", filepath.Join(outDir, "result.json"), "result file")
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 || *repeat < 1 {
		return 2
	}
	seconds, traceSeconds := untracedSeconds, tracedSeconds
	if *quick {
		seconds, traceSeconds = quickSeconds, quickSeconds
	}
	self, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(filepath.Dir(*outPath), 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res := &resultFile{Env: readEnv(*seed), Seconds: seconds, TraceSeconds: traceSeconds, Repeat: *repeat,
		Workloads: map[string]*workloadResult{}}
	for _, wl := range workloads {
		res.Workloads[wl.Name] = &workloadResult{Correct: true, EndToEnd: map[string]*metricResult{}, PerLayer: map[string]*metricResult{}}
	}
	ok := true
	for rep := 0; rep < *repeat; rep++ {
		for _, wl := range workloads {
			wr := res.Workloads[wl.Name]
			for _, trace := range []bool{false, true} {
				secs, into, flagv := seconds, wr.EndToEnd, "0"
				if trace {
					secs, into, flagv = traceSeconds, wr.PerLayer, "1"
				}
				fmt.Fprintf(os.Stderr, "[set %d/%d] %s trace=%s\n", rep+1, *repeat, wl.Name, flagv)
				// The child prints its metric table and ends with the driver's
				// JSON line; a non-zero exit with that line present means a
				// correctness check failed, which the line itself says.
				cmd := exec.Command(self, "--workload", wl.Name, "--seed", fmt.Sprint(*seed),
					"--seconds", fmt.Sprint(secs), "--trace", flagv)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				runErr := cmd.Run()
				os.Stderr.Write(stdout.Bytes())
				out, err := parseDriverLine(stdout.Bytes())
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s trace=%s: %v (%v)\n", wl.Name, flagv, err, runErr)
					return 1
				}
				wr.Correct = wr.Correct && out.Correct
				wr.Attempted += out.Attempted
				wr.Failed += out.Failed
				ok = ok && out.Correct
				for name, m := range out.Metrics {
					mr := into[name]
					if mr == nil {
						mr = &metricResult{Unit: m.Unit}
						into[name] = mr
					}
					mr.Runs = append(mr.Runs, m.Value)
				}
			}
		}
	}
	for _, wl := range workloads {
		wr := res.Workloads[wl.Name]
		fmt.Printf("\n# %s  (%d attempted, %d failed)\n", wl.Name, wr.Attempted, wr.Failed)
		for _, part := range []struct {
			specs []metricSpec
			vals  map[string]*metricResult
		}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
			for _, spec := range part.specs {
				mr := part.vals[spec.Name]
				if mr == nil {
					continue
				}
				mr.Value = median(mr.Runs)
				mr.Q1, mr.Q3 = quartiles(mr.Runs)
				fmt.Printf("%-36s %16.6g %-6s", spec.Name, mr.Value, mr.Unit)
				if len(mr.Runs) > 1 {
					fmt.Printf(" [q1 %.6g, q3 %.6g, %d runs]", mr.Q1, mr.Q3, len(mr.Runs))
				}
				fmt.Println()
			}
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "wrote", *outPath)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: correctness checks failed")
		return 1
	}
	return 0
}

// driverResult is the one-object summary every pass ends its output with.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parseDriverLine reads the last line of a pass's standard output.
func parseDriverLine(stdout []byte) (*driverResult, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var r driverResult
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil || r.Attempted < 1 {
		return nil, fmt.Errorf("no result line (%v)", err)
	}
	return &r, nil
}
