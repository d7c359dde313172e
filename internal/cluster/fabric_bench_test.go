package cluster

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkFabricChurn measures flow start/complete cost with ongoing
// contention (the simulator's hot path) on a small 8-link fabric.
func BenchmarkFabricChurn(b *testing.B) {
	eng := sim.NewEngine()
	fb := NewFabric(eng.SystemShard(), "bench")
	links := make([]*Link, 8)
	for i := range links {
		links[i] = fb.AddLink(fmt.Sprintf("l%d", i), 100)
	}
	for i := 0; i < 40; i++ {
		fb.Start([]*Link{links[i%8]}, 1e12, 0, nil) // standing load
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var launch func(i int)
	launch = func(i int) {
		fb.Start([]*Link{links[i%8], links[(i+3)%8]}, 50, 0, func() {
			done++
			if done < b.N {
				launch(done)
			}
		})
	}
	launch(0)
	eng.Run()
}

// BenchmarkFabricChurnLarge exercises the cluster network fabric at
// production scale: 128 nodes in two racks (256 NIC links plus two
// rack uplinks). A standing load of long rack-local transfers keeps
// every node's NIC busy while short transfers churn through the
// fabric; every start and finish triggers a fair-share recomputation.
// Most churn is rack-local (as a locality-aware scheduler would place
// it), so the dirty region of each recomputation is a handful of
// links; every 16th transfer crosses the rack uplinks.
func BenchmarkFabricChurnLarge(b *testing.B) {
	eng := sim.NewEngine()
	cfg := Config{
		RackSizes:      []int{64, 64},
		CoresPerNode:   8,
		VCoresPerNode:  28,
		ContainerMemMB: 6 * 1024,
		DiskMBps:       90,
		NICMBps:        117,
		UplinkMBps:     2000,
	}
	c := New(eng, cfg)
	n := len(c.Nodes)
	rackSize := cfg.RackSizes[0]
	// Standing load: one long rack-local transfer per node.
	for i := 0; i < n; i++ {
		base := i / rackSize * rackSize
		dst := c.Nodes[base+(i-base+1)%rackSize]
		c.Transfer(c.Nodes[i], dst, 1e12, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var launch func(k int)
	launch = func(k int) {
		si := (k * 13) % n
		src := c.Nodes[si]
		var dst *Node
		if k%16 == 0 {
			dst = c.Nodes[(si+rackSize)%n] // cross-rack
		} else {
			base := si / rackSize * rackSize
			dst = c.Nodes[base+(si-base+7)%rackSize] // rack-local
		}
		c.Transfer(src, dst, 10, func() {
			done++
			if done < b.N {
				launch(done)
			}
		})
	}
	launch(0)
	eng.Run()
}

// TestRecomputeSteadyStateAllocationFree pins the sort-free recompute:
// once the scratch buffers have grown to the component size, a
// recomputation must not allocate — on the one-round kernel (an idle
// second link makes the fabric general; uncapped flows on one link all
// freeze in round 1), on the general filling's small-component
// insertion-sort and large-component epoch-scan orderings (half the
// flows capped low, so filling takes a second round), and on the
// single-link kernel. The kernel is also pinned with every flow moving
// (capacity alternating), which sorts and reschedules all of them.
func TestRecomputeSteadyStateAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		idleLink bool
		capped   bool // every other flow capped below its fair share
		moving   bool // alternate the capacity so every rate changes
	}{
		{"one-round kernel", true, false, false},
		{"one-round kernel, all flows moving", true, false, true},
		{"general filling", true, true, false},
		{"single-link kernel", false, false, false},
	} {
		for _, nFlows := range []int{8, 32} { // ≤24 and >24 ordering paths
			eng := sim.NewEngine()
			fb := NewFabric(eng.SystemShard(), "alloc")
			l := fb.AddLink("l", 100)
			if tc.idleLink {
				fb.AddLink("idle", 100)
			}
			for i := 0; i < nFlows; i++ {
				rateCap := 0.0
				if tc.capped && i%2 == 0 {
					rateCap = 0.5
				}
				fb.Start([]*Link{l}, 1e12, rateCap, nil)
			}
			seeds := []*Link{l}
			capacity := 100.0
			recompute := func() {
				if tc.moving {
					capacity = 190 - capacity // 100, 90, 100, ...
					fb.SetCapacity(l, capacity)
					return
				}
				fb.recompute(seeds, nil)
			}
			recompute() // warm the scratch buffers
			if a := testing.AllocsPerRun(100, recompute); a != 0 {
				t.Errorf("%s: steady-state recompute (%d flows) allocates %v per run, want 0", tc.name, nFlows, a)
			}
		}
	}
}

// BenchmarkFabricCappedStable measures the steady-state CPU-pool
// pattern: many rate-capped flows whose caps bind (sum of caps below
// link capacity), churned by short capped flows. The standing flows'
// rates never change, so an incremental fabric should leave their
// completion events untouched.
func BenchmarkFabricCappedStable(b *testing.B) {
	eng := sim.NewEngine()
	fb := NewFabric(eng.SystemShard(), "cpu")
	l := fb.AddLink("cpu", 8)
	const capRate = 8.0 / 56 // uniform vcore-style cap, sum well under capacity
	for i := 0; i < 24; i++ {
		fb.Start([]*Link{l}, 1e12, capRate, nil) // standing capped load
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var launch func()
	launch = func() {
		fb.Start([]*Link{l}, 0.05, capRate, func() {
			done++
			if done < b.N {
				launch()
			}
		})
	}
	launch()
	eng.Run()
}

// fetchRunner runs split fetches to completion the way a reducer does:
// a counter joins the two parts, and its callback is bound once.
type fetchRunner struct {
	eng  *sim.Engine
	c    *Cluster
	left int
	done func()
}

func newFetchRunner(eng *sim.Engine, c *Cluster) *fetchRunner {
	r := &fetchRunner{eng: eng, c: c}
	r.done = r.arrive
	return r
}

func (r *fetchRunner) arrive() {
	if r.left--; r.left == 0 {
		r.eng.Stop()
	}
}

// run fetches 10 MB to dst, half of it cross-rack, runs the engine
// until both parts complete and hands both flows back to their pool,
// as a reducer's phase boundary does.
func (r *fetchRunner) run(dst *Node, rateCap float64) {
	r.left = 2
	first, second := r.c.Fetch(dst, 10, 0.5, rateCap, r.done)
	r.eng.Run()
	first.Recycle()
	second.Recycle()
}

// rackNetwork returns a cluster of two 32-node racks with standing
// split fetches to nodes 1..standing of the first rack (they never
// finish within a run); capOf gives fetch i's rate cap.
func rackNetwork(standing int, capOf func(i int) float64) (*sim.Engine, *Cluster) {
	eng := sim.NewEngine()
	cfg := PaperConfig()
	cfg.RackSizes = []int{32, 32}
	c := New(eng, cfg)
	for i := 0; i < standing; i++ {
		c.Fetch(c.Racks[0][1+i], 1e12, 0.5, capOf(i), nil)
	}
	return eng, c
}

// BenchmarkNetworkFetch measures one split shuffle fetch — its
// cross-rack part on the receive NIC and the rack uplink, its local
// part on the NIC — from start to completion (and recycling), on a
// network of 32-node racks with 0, 4 or 16 standing split fetches to
// other nodes of the rack sharing the uplink. With uniform caps every
// fetch has the same cap (one parallel-copies setting fleet-wide); with
// mixed caps they differ, so filling more often takes a second round.
func BenchmarkNetworkFetch(b *testing.B) {
	for _, caps := range []string{"uniform", "mixed"} {
		capOf := func(i int) float64 {
			if caps == "uniform" {
				return 100
			}
			return 20 + 13*float64(i%7)
		}
		for _, standing := range []int{0, 4, 16} {
			b.Run(fmt.Sprintf("caps=%s/standing=%d", caps, standing), func(b *testing.B) {
				eng, c := rackNetwork(standing, capOf)
				r := newFetchRunner(eng, c)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.run(c.Racks[0][0], capOf(standing))
				}
			})
		}
	}
}

// TestSplitFetchAllocationFree pins the split fetch: once the pools are
// warm, starting both parts, completing them and recycling them
// allocates nothing (done runs per part; no join closure).
func TestSplitFetchAllocationFree(t *testing.T) {
	capOf := func(i int) float64 { return 20 + 13*float64(i%7) }
	eng, c := rackNetwork(4, capOf)
	r := newFetchRunner(eng, c)
	dst := c.Racks[0][0]
	r.run(dst, 100) // warm the pools
	if a := testing.AllocsPerRun(100, func() { r.run(dst, 100) }); a != 0 {
		t.Errorf("split fetch allocates %v per start-to-completion, want 0", a)
	}
}
