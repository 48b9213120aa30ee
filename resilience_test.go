package blink

import (
	"math/rand"
	"testing"
)

// TestCommReconfigureAfterLinkFailure walks the README resilience flow:
// a communicator survives a link failure by re-probing the derived machine,
// and its data-mode collectives stay elementwise-exact on the degraded
// fabric.
func TestCommReconfigureAfterLinkFailure(t *testing.T) {
	machine := DGX1V()
	comm, err := NewComm(machine, []int{0, 1, 2, 3, 4, 5, 6, 7}, WithDataMode())
	if err != nil {
		t.Fatal(err)
	}
	pre, err := comm.AllReduce(64 << 20)
	if err != nil {
		t.Fatal(err)
	}

	degraded, err := machine.WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.Reconfigure(degraded); err != nil {
		t.Fatal(err)
	}
	post, err := comm.AllReduce(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if post.ThroughputGBs < pre.ThroughputGBs/2 {
		t.Fatalf("post-fault %.2f GB/s below half of pre-fault %.2f GB/s",
			post.ThroughputGBs, pre.ThroughputGBs)
	}
	inputs, want := randInputs(rand.New(rand.NewSource(777)), comm.Size(), 777)
	outs, err := comm.AllReduceData(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffRows(outs, repeat(want, len(outs))); err != nil {
		t.Fatalf("degraded allreduce: %v", err)
	}

	// Trees are re-packed for the degraded fabric.
	if _, err := comm.Trees(0); err != nil {
		t.Fatal(err)
	}
}

func TestCommReconfigureExclude(t *testing.T) {
	comm := dgx1vComm(t, []int{0, 1, 2, 3, 4, 5, 6, 7}, WithDataMode())
	if err := comm.ReconfigureExclude(3, 7); err != nil {
		t.Fatal(err)
	}
	if comm.Size() != 6 {
		t.Fatalf("Size = %d after eviction, want 6", comm.Size())
	}
	for _, d := range comm.Devices() {
		if d == 3 || d == 7 {
			t.Fatalf("evicted device %d still allocated", d)
		}
	}
	inputs, want := randInputs(rand.New(rand.NewSource(600)), comm.Size(), 600)
	outs, err := comm.AllReduceData(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffRows(outs, repeat(want, len(outs))); err != nil {
		t.Fatalf("post-eviction allreduce: %v", err)
	}

	if err := comm.ReconfigureExclude(3); err == nil {
		t.Fatal("excluding an already-evicted device must error")
	}
	if err := comm.ReconfigureExclude(0, 1, 2, 4, 5); err == nil {
		t.Fatal("evicting down to one device must error")
	}
	if err := comm.ReconfigureExclude(); err == nil {
		t.Fatal("empty exclusion must error")
	}
}

func TestClusterCommReconfigureWithoutServer(t *testing.T) {
	machine := DGX1V()
	servers := []ServerSpec{
		{Machine: machine, Devs: []int{0, 1, 2, 3}},
		{Machine: machine, Devs: []int{0, 1, 2, 3}},
		{Machine: machine, Devs: []int{4, 5, 6, 7}},
	}
	cl, err := NewCluster(servers, 100)
	if err != nil {
		t.Fatal(err)
	}
	cc := clusterComm(t, cl, WithDataMode())
	if cc.Size() != 12 {
		t.Fatalf("Size = %d, want 12", cc.Size())
	}
	if err := cc.ReconfigureWithoutServer(1); err != nil {
		t.Fatal(err)
	}
	if cc.Size() != 8 {
		t.Fatalf("Size = %d after server loss, want 8", cc.Size())
	}
	if got := cc.ServerSizes(); len(got) != 2 {
		t.Fatalf("ServerSizes = %v, want 2 servers", got)
	}
	inputs, want := randInputs(rand.New(rand.NewSource(512)), cc.Size(), 512)
	outs, err := cc.AllReduceData(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffRows(outs, repeat(want, len(outs))); err != nil {
		t.Fatalf("post-server-loss allreduce: %v", err)
	}

	if err := cc.ReconfigureWithoutServer(0); err == nil {
		t.Fatal("shrinking below two servers must error")
	}
}

// TestSharedCacheSurvivesReconfigure pins the cache-turnover contract: a
// reconfiguration drops the dead topology's plans from a shared cache but
// leaves other allocations' plans resident.
func TestSharedCacheSurvivesReconfigure(t *testing.T) {
	pc := NewPlanCache(64)
	machine := DGX1V()
	a, err := NewComm(machine, []int{0, 1, 2, 3}, WithPlanCache(pc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewComm(machine, []int{4, 5, 6, 7}, WithPlanCache(pc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllReduce(8 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AllReduce(8 << 20); err != nil {
		t.Fatal(err)
	}
	if pc.Len() != 2 {
		t.Fatalf("cache holds %d plans, want 2", pc.Len())
	}
	degraded, err := machine.WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Reconfigure(degraded); err != nil {
		t.Fatal(err)
	}
	if pc.Len() != 1 {
		t.Fatalf("cache holds %d plans after reconfigure, want b's 1", pc.Len())
	}
	// b's plan is still warm: replaying it is a cache hit.
	preHits := b.CacheStats().Hits
	if _, err := b.AllReduce(8 << 20); err != nil {
		t.Fatal(err)
	}
	if b.CacheStats().Hits != preHits+1 {
		t.Fatal("b's plan should have survived a's reconfiguration")
	}
}
