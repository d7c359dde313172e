package yarn

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// BenchmarkSchedulerChurn storms a 128-node cluster with
// variable-shape container place/release cycles against a standing
// load, the placement hot path of every multi-job experiment. Each
// request prefers one node, so delay scheduling, the free-capacity
// index, and the relax-retry machinery are all on the measured path.
func BenchmarkSchedulerChurn(b *testing.B) {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		RackSizes:      []int{64, 64},
		CoresPerNode:   8,
		VCoresPerNode:  28,
		ContainerMemMB: 6 * 1024,
		DiskMBps:       90,
		NICMBps:        117,
		UplinkMBps:     2000,
	})
	rm := NewResourceManager(eng, c, FIFOScheduler{})
	app := rm.Submit("churn", 1)
	// Standing load: two thirds of every node held by long-lived
	// containers, so placement always works against a loaded index.
	for range c.Nodes {
		for k := 0; k < 4; k++ {
			app.Request(&Request{
				Resource:   Resource{MemMB: 1024, VCores: 4},
				OnAllocate: func(*Container) {},
			})
		}
	}
	eng.Run() // settle the standing load before the clock starts
	shapes := []Resource{
		{MemMB: 512, VCores: 1},
		{MemMB: 1024, VCores: 2},
		{MemMB: 1536, VCores: 3},
		{MemMB: 2048, VCores: 4},
		{MemMB: 768, VCores: 1},
	}
	n := len(c.Nodes)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var launch func(k int)
	launch = func(k int) {
		app.Request(&Request{
			Resource:       shapes[k%len(shapes)],
			PreferredNodes: []*cluster.Node{c.Nodes[(k*13)%n]},
			OnAllocate: func(cont *Container) {
				eng.After(0.25, func() {
					rm.Release(cont)
					done++
					if done < b.N {
						launch(done)
					}
				})
			},
		})
	}
	for i := 0; i < 32 && i < b.N; i++ {
		launch(i)
	}
	eng.Run()
}

// BenchmarkAssign10k measures one assignment pass on the flagship
// 10,016-node cluster (313 racks of 32) with 300 pending requests, each
// preferring three nodes and all inside the delay-scheduling window —
// the shape of nearly every pass of the serving day. The preferred
// nodes are full, so a pass places nothing and every iteration sees
// the same state.
func BenchmarkAssign10k(b *testing.B) {
	eng := sim.NewEngine()
	racks := make([]int, 313)
	for i := range racks {
		racks[i] = 32
	}
	c := cluster.New(eng, cluster.Config{
		RackSizes:      racks,
		CoresPerNode:   8,
		VCoresPerNode:  28,
		ContainerMemMB: 6 * 1024,
		DiskMBps:       90,
		NICMBps:        117,
		UplinkMBps:     2000,
	})
	rm := NewResourceManager(eng, c, FIFOScheduler{})
	app := rm.Submit("bench", 1)
	rng := rand.New(rand.NewSource(1))
	prefs := make([][]*cluster.Node, 300)
	full := map[*cluster.Node]bool{}
	for i := range prefs {
		for k := 0; k < 3; k++ {
			n := c.Nodes[rng.Intn(len(c.Nodes))]
			prefs[i] = append(prefs[i], n)
			if !full[n] {
				full[n] = true
				app.Request(&Request{
					Resource:       Resource{MemMB: 6 * 1024, VCores: 1},
					PreferredNodes: []*cluster.Node{n},
					OnAllocate:     func(*Container) {},
				})
			}
		}
	}
	eng.Run() // fill every preferred node
	for _, p := range prefs {
		app.Request(&Request{Resource: Resource{MemMB: 1024, VCores: 1}, PreferredNodes: p})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.assign()
	}
	b.StopTimer()
	if app.Pending() != len(prefs) {
		b.Fatalf("pending = %d, want %d: a pass placed on a full node", app.Pending(), len(prefs))
	}
}

// TestPlacementHotPathAllocationFree pins the allocation behavior of
// the free-capacity index and the candidate sweep: the per-node,
// per-pass placement queries, the coalesced relax-retry re-check and a
// candidate-sweep pass must not allocate.
func TestPlacementHotPathAllocationFree(t *testing.T) {
	eng, c, rm := newRMQuiet(FIFOScheduler{})
	app := rm.Submit("alloc", 1)
	// A satisfiable request warms the placement path, and an
	// unsatisfiably large one keeps the pending shape sets non-empty.
	app.Request(&Request{Resource: Resource{MemMB: 1024, VCores: 1}, OnAllocate: func(*Container) {}})
	eng.Run()
	app.Request(&Request{
		Resource:       Resource{MemMB: 1 << 30, VCores: 1},
		PreferredNodes: []*cluster.Node{c.Nodes[0]},
	})

	node := c.Nodes[0]
	shape := Resource{MemMB: 512, VCores: 1}
	if a := testing.AllocsPerRun(100, func() { rm.fits(node, shape) }); a != 0 {
		t.Errorf("fits allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { app.hasFittingRequest(node) }); a != 0 {
		t.Errorf("hasFittingRequest allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { rm.anyPendingFits(node) }); a != 0 {
		t.Errorf("anyPendingFits allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { rm.EachShape(func(Resource, int) {}) }); a != 0 {
		t.Errorf("EachShape allocates %v per run, want 0", a)
	}
	// First call arms the wakeup for the pending preferred request;
	// every further call finds it coalesced and must be free.
	rm.scheduleRelaxRetry()
	if rm.RetryWakeupsScheduled() != 1 {
		t.Fatalf("retry wakeups = %d, want 1", rm.RetryWakeupsScheduled())
	}
	if a := testing.AllocsPerRun(100, func() { rm.scheduleRelaxRetry() }); a != 0 {
		t.Errorf("coalesced scheduleRelaxRetry allocates %v per run, want 0", a)
	}
	if rm.RetryWakeupsScheduled() != 1 {
		t.Fatalf("coalesced calls scheduled more wakeups: %d", rm.RetryWakeupsScheduled())
	}
	// A whole assignment pass through the candidate sweep: every pending
	// request prefers a node and is inside its delay window, so the pass
	// collects, sorts and visits candidates (and places nothing, since
	// the request cannot fit). The first run sizes the scratch; the rest
	// must be free.
	epoch := rm.markEpoch
	if a := testing.AllocsPerRun(100, func() { rm.assign() }); a != 0 {
		t.Errorf("candidate-sweep assign allocates %v per run, want 0", a)
	}
	if rm.markEpoch == epoch {
		t.Fatal("assign never took the candidate sweep")
	}
}
