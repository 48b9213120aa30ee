// Package cluster simulates a multi-tenant GPU cluster scheduler to
// reproduce Figure 3: although multi-GPU jobs overwhelmingly request GPUs
// in powers of two, fragmentation on 8-GPU servers leaves many jobs with
// 3, 5, 6 or 7 GPUs on an individual server.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
)

// Job is one scheduled training job.
type Job struct {
	ID        int
	Requested int
	// Pieces[i] is the number of GPUs the job received on server i's
	// machine (only non-zero pieces are recorded).
	Pieces []int
	start  float64
	end    float64
}

// Config shapes the simulated cluster and workload.
type Config struct {
	Servers       int     // 8-GPU servers (default 32)
	GPUsPerServer int     // default 8
	Jobs          int     // multi-GPU jobs to schedule (default 40000)
	ArrivalRate   float64 // jobs per time unit (default 12)
	MeanDuration  float64 // mean job duration in time units (default 6)
	Seed          int64
}

func (c *Config) setDefaults() {
	if c.Servers <= 0 {
		c.Servers = 32
	}
	if c.GPUsPerServer <= 0 {
		c.GPUsPerServer = 8
	}
	if c.Jobs <= 0 {
		c.Jobs = 40000
	}
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 12
	}
	if c.MeanDuration <= 0 {
		c.MeanDuration = 6
	}
}

// requestSizes mirrors the paper's observation: requests come almost
// exclusively in powers of two. Single-GPU jobs (common in shared clusters)
// are what make per-server occupancy odd, which in turn fragments the
// multi-GPU jobs scheduled around them.
var requestSizes = []struct {
	gpus   int
	weight float64
}{
	{1, 0.50},
	{2, 0.10},
	{4, 0.22},
	{8, 0.12},
	{16, 0.06},
}

func sampleRequest(rng *rand.Rand) int {
	x := rng.Float64()
	acc := 0.0
	for _, r := range requestSizes {
		acc += r.weight
		if x < acc {
			return r.gpus
		}
	}
	return 8
}

// Result aggregates the simulation outcome.
type Result struct {
	Jobs []Job
	// PieceHistogram[g] is the fraction of multi-GPU jobs that received
	// exactly g GPUs on some individual server (g in [2, GPUsPerServer]),
	// matching Figure 3's y-axis.
	PieceHistogram map[int]float64
	// Fragmented is the fraction of jobs split across servers.
	Fragmented float64
}

// Simulate runs the scheduler: jobs arrive (Poisson), hold GPUs for an
// exponential duration, and are placed greedily onto the freest servers;
// a job that does not fit on one server is split (the paper notes even
// topology-aware schedulers must embrace fragmentation to avoid queueing).
func Simulate(cfg Config) (*Result, error) {
	cfg.setDefaults()
	totalGPUs := cfg.Servers * cfg.GPUsPerServer
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	free := make([]int, cfg.Servers)
	for i := range free {
		free[i] = cfg.GPUsPerServer
	}
	type running struct {
		end    float64
		pieces map[int]int // server -> gpus
	}
	var active []running

	release := func(now float64) {
		kept := active[:0]
		for _, r := range active {
			if r.end <= now {
				for s, g := range r.pieces {
					free[s] += g
				}
			} else {
				kept = append(kept, r)
			}
		}
		active = kept
	}

	res := &Result{PieceHistogram: map[int]float64{}}
	now := 0.0
	fragmented := 0
	multiJobs := 0
	for id := 0; id < cfg.Jobs; id++ {
		now += rng.ExpFloat64() / cfg.ArrivalRate
		release(now)
		req := sampleRequest(rng)
		if req > totalGPUs {
			continue
		}
		// Wait until enough GPUs free (queueing).
		for {
			totalFree := 0
			for _, f := range free {
				totalFree += f
			}
			if totalFree >= req {
				break
			}
			// Jump to the earliest completion.
			earliest := -1.0
			for _, r := range active {
				if earliest < 0 || r.end < earliest {
					earliest = r.end
				}
			}
			if earliest < 0 {
				return nil, fmt.Errorf("cluster: deadlock with no active jobs")
			}
			now = earliest
			release(now)
		}
		// Placement: prefer one server that fits exactly or with least
		// leftover; otherwise split across the freest servers.
		pieces := place(free, req)
		job := Job{ID: id, Requested: req, start: now, end: now + rng.ExpFloat64()*cfg.MeanDuration}
		pm := map[int]int{}
		for s, g := range pieces {
			free[s] -= g
			pm[s] = g
			job.Pieces = append(job.Pieces, g)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(job.Pieces)))
		active = append(active, running{end: job.end, pieces: pm})
		res.Jobs = append(res.Jobs, job)
		if req >= 2 {
			multiJobs++
			if len(job.Pieces) > 1 {
				fragmented++
			}
			for _, g := range job.Pieces {
				if g >= 2 {
					res.PieceHistogram[g]++
				}
			}
		}
	}
	if multiJobs > 0 {
		for g := range res.PieceHistogram {
			res.PieceHistogram[g] /= float64(multiJobs)
		}
		res.Fragmented = float64(fragmented) / float64(multiJobs)
	}
	return res, nil
}

// place chooses per-server GPU counts for a request against free counts.
func place(free []int, req int) map[int]int {
	// Exact fit or tightest single-server fit first.
	best := -1
	for s, f := range free {
		if f >= req && (best == -1 || f < free[best]) {
			best = s
		}
	}
	if best >= 0 {
		return map[int]int{best: req}
	}
	// Split: take from the freest servers (fewest pieces).
	type sf struct{ s, f int }
	var order []sf
	for s, f := range free {
		if f > 0 {
			order = append(order, sf{s, f})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].f != order[j].f {
			return order[i].f > order[j].f
		}
		return order[i].s < order[j].s
	})
	out := map[int]int{}
	left := req
	for _, o := range order {
		take := min(o.f, left)
		out[o.s] = take
		left -= take
		if left == 0 {
			break
		}
	}
	return out
}
