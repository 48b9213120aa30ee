package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileMedianQuartiles(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if q1, q3 := quartiles([]float64{10, 12, 11}); q1 != 10 || q3 != 12 {
		t.Errorf("quartiles(10,12,11) = %v, %v", q1, q3)
	}
	if got := spread([]float64{10, 12, 11}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread = %v, want 2/11", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	b := newSpanBuf(16)
	at := func(us int) time.Time { return b.epoch.Add(time.Duration(us) * time.Microsecond) }
	// Op 0: comm 100us ⊃ engine 80us ⊃ {cache 1us, replay 70us ⊃ simgpu 60us}.
	comm := b.add(spComm, 0, -1, at(0), at(100))
	eng := b.add(spEngine, 0, comm, at(100), at(180))
	b.add(spCacheGet, 0, eng, at(180), at(181))
	rep := b.add(spReplay, 0, eng, at(181), at(251))
	b.add(spSimRun, 0, rep, at(251), at(311))
	// Op 1: a cluster op — public call only.
	b.add(spComm, 1, -1, at(400), at(650))

	if got := b.durations(spComm); !reflect.DeepEqual(got, []float64{100, 250}) {
		t.Errorf("comm durations = %v", got)
	}
	if got := b.selfTimes(spComm); !reflect.DeepEqual(got, []float64{20}) {
		t.Errorf("comm self = %v, want [20] (the childless span is left out)", got)
	}
	if got := b.selfTimes(spEngine); !reflect.DeepEqual(got, []float64{9}) {
		t.Errorf("engine self = %v, want [9]", got)
	}
	if got := b.selfTimes(spReplay); !reflect.DeepEqual(got, []float64{10}) {
		t.Errorf("materialise = %v, want [10]", got)
	}
	if got := b.diffs(spReplay, spSimRun); !reflect.DeepEqual(got, []float64{10}) {
		t.Errorf("diffs = %v, want [10]", got)
	}
	if b.room(11) || !b.room(10) {
		t.Errorf("room: 6 of 16 used")
	}
}

func TestSequenceIsSeeded(t *testing.T) {
	counts := []int{6, 2, 1, 1}
	a := buildSequence(rand.New(rand.NewSource(7)), counts, 4)
	b := buildSequence(rand.New(rand.NewSource(7)), counts, 4)
	c := buildSequence(rand.New(rand.NewSource(8)), counts, 4)
	if seqHash(a) != seqHash(b) {
		t.Errorf("same seed, different order")
	}
	if seqHash(a) == seqHash(c) {
		t.Errorf("different seeds, same order")
	}
	for cyc := 0; cyc < 4; cyc++ {
		got := make([]int, len(counts))
		for _, op := range a[cyc*10 : cyc*10+10] {
			got[op]++
		}
		if !reflect.DeepEqual(got, counts) {
			t.Errorf("cycle %d holds %v of each op, want %v", cyc, got, counts)
		}
	}
}

func TestVerdict(t *testing.T) {
	mr := func(runs ...float64) *metricResult { return &metricResult{Value: median(runs), Runs: runs} }
	lower := metricSpec{Name: "op_us_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	exact := metricSpec{Name: "sim_gbs", Better: "higher", Bound: 0.001, Exact: true}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b *metricResult
		want string
	}{
		{"within bound", lower, mr(100, 101, 99), mr(105, 106, 104), "ok"},
		{"past bound", lower, mr(100, 101, 99), mr(115, 116, 114), "regressed"},
		{"faster is fine", lower, mr(100, 101, 99), mr(50, 51, 49), "ok"},
		{"throughput drop", higher, mr(1000, 1010, 990), mr(850, 860, 840), "regressed"},
		{"noisy base", lower, mr(100, 130, 80), mr(104, 105, 103), "unresolved"},
		{"exact equal", exact, mr(15.5), mr(15.5), "ok"},
		{"exact worse by a hair", exact, mr(15.5), mr(15.499999), "regressed"},
		{"exact better", exact, mr(15.5), mr(15.6), "ok"},
	} {
		if _, got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// benchmarkJSON mirrors the file the driver reads.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %v\n spec %v", bj.Workloads, workloads)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end_to_end[%d]: json %+v, spec %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("no setup_s metric")
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer[%d]: json %+v, spec %+v", i, m, s)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
}

// TestQuickSmoke drives all four workloads end to end through both passes
// with sub-second windows and checks that each pass is correct and emits
// exactly the metrics declared for it.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload and probe; about 15 s")
	}
	dir := t.TempDir()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: wl.Name, seed: 3, seconds: 0.3, trace: trace, outDir: dir}
			pass, declared := runUntraced, endToEnd
			if trace {
				pass, declared = runTraced, perLayer
			}
			out, err := pass(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", wl.Name, trace, out.Failed, out.Attempted, out.Notes)
			}
			var got, want []string
			for name := range out.Metrics {
				got = append(got, name)
			}
			for _, s := range declared {
				want = append(want, s.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted %v, declared %v", wl.Name, trace, got, want)
			}

			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  *string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(out.driverLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s trace=%v: driver line: %v", wl.Name, trace, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: driver line incomplete: %s", wl.Name, trace, out.driverLine())
			}
			for name, m := range line.Metrics {
				spec, _ := findSpec(declared, name)
				if m.Value == nil || m.Unit == nil || *m.Unit != spec.Unit {
					t.Errorf("%s %s: bad metric object", wl.Name, name)
				} else if !trace && !(*m.Value > 0) {
					t.Errorf("%s %s = %v: end-to-end metrics must never be 0", wl.Name, name, *m.Value)
				}
			}
		}
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.IsDir() {
			t.Errorf("temporary directory %s left behind", e.Name())
		}
	}
}

func TestWorkloadInputsFollowTheSeed(t *testing.T) {
	hash := func(seed int64) string {
		w := newWarmData(seed)
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		return seqHash(w.sequence())
	}
	a, b, c := hash(1), hash(1), hash(2)
	if a != b || a == c {
		t.Errorf("warm_data sequence hashes: seed 1 %s, seed 1 again %s, seed 2 %s", a, b, c)
	}
}
