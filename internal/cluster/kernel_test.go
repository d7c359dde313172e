package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// kernelRun is what one replay of a schedule observed: per-op rates at
// each sample time (NaN when inactive), the link's current rate and
// meter average at each sample, completion times (NaN when never
// completed) and the order in which done callbacks fired.
type kernelRun struct {
	rates, linkRate, linkAvg []float64
	doneAt                   []float64
	order                    []int
}

// runKernelSchedule replays ops on a fabric whose first link has
// capacity 100. With idleLink the fabric gets a second link that no
// flow ever crosses, which forces the general recompute; without it the
// fabric takes the single-link kernel. The link's capacity dips at
// t=15 and recovers at t=30, so SetCapacity takes both paths too.
func runKernelSchedule(ops []goldenOp, idleLink bool) kernelRun {
	eng := sim.NewEngine()
	eng.MaxEvents = 5_000_000
	fb := NewFabric(eng.SystemShard(), "kernel")
	l := fb.AddLink("l", 100)
	if idleLink {
		fb.AddLink("idle", 50)
	}
	var run kernelRun
	flows := make([]*Flow, len(ops))
	run.doneAt = make([]float64, len(ops))
	for i := range run.doneAt {
		run.doneAt[i] = math.NaN()
	}
	for i, op := range ops {
		i, op := i, op
		eng.At(op.at, func() {
			links := []*Link{l}
			if op.links == nil {
				links = nil
			}
			flows[i] = fb.Start(links, op.work, op.rateCap, func() {
				run.doneAt[i] = eng.Now()
				run.order = append(run.order, i)
			})
		})
		if op.cancelAt >= 0 {
			eng.At(op.cancelAt, func() { fb.Cancel(flows[i]) })
		}
	}
	eng.At(15, func() { fb.SetCapacity(l, 60) })
	eng.At(30, func() { fb.SetCapacity(l, 100) })
	for _, st := range sampleTimes() {
		eng.At(st, func() {
			for _, f := range flows {
				r := math.NaN()
				if f != nil && !f.Done() {
					r = f.Rate()
				}
				run.rates = append(run.rates, r)
			}
			run.linkRate = append(run.linkRate, l.CurrentRate())
			run.linkAvg = append(run.linkAvg, l.used.Average(eng.Now()))
		})
	}
	eng.Run()
	run.linkAvg = append(run.linkAvg, l.used.Average(eng.Now()))
	return run
}

// sameBits reports whether two float slices are bit-identical, NaN
// matching NaN.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// TestSingleLinkKernelMatchesGeneral pins the single-link kernel
// (recomputeSingle) to the general component recompute: the same
// random schedules — capped and uncapped flows, zero-work flows,
// cancels, capacity changes and simultaneous completions, with up to
// dozens of concurrent flows
// so both of the general path's ordering strategies run — replayed on
// a one-link fabric and on the same fabric plus an idle second link
// must agree bit for bit on every sampled rate, the link's rate and
// meter average, every completion time and the firing order.
func TestSingleLinkKernelMatchesGeneral(t *testing.T) {
	for seed := int64(300); seed < 316; seed++ {
		withCaps := seed%2 == 0
		ops := goldenSchedule(seed, 90, 1, 1, withCaps, false)
		for i := range ops {
			if i%11 == 5 {
				ops[i].work = 0
			}
			if i%7 == 3 {
				// An identical twin started at the same instant finishes
				// at the same instant, so the firing order pins the order
				// in which completions are rescheduled.
				twin := ops[i]
				twin.cancelAt = -1
				ops = append(ops, twin)
			}
		}
		kernel := runKernelSchedule(ops, false)
		general := runKernelSchedule(ops, true)
		for _, c := range []struct {
			name string
			k, g []float64
		}{
			{"flow rate", kernel.rates, general.rates},
			{"link rate", kernel.linkRate, general.linkRate},
			{"meter average", kernel.linkAvg, general.linkAvg},
			{"completion time", kernel.doneAt, general.doneAt},
		} {
			if i, ok := sameBits(c.k, c.g); !ok {
				t.Fatalf("seed %d: %s differs at %d (len %d vs %d)", seed, c.name, i, len(c.k), len(c.g))
			}
		}
		if fmt.Sprint(kernel.order) != fmt.Sprint(general.order) {
			t.Fatalf("seed %d: firing order differs:\nkernel  %v\ngeneral %v", seed, kernel.order, general.order)
		}
	}
}

// TestZeroWorkCancelRecycle is the regression test for a stale
// zero-work completion: a canceled zero-work flow's deferred completion
// used to stay queued while Recycle pooled the object, so the next
// Start on the reused flow was marked finished at t=0 by the old
// callback, fired the canceled done, and was stranded on its link.
func TestZeroWorkCancelRecycle(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng.SystemShard(), "test")
	links := []*Link{fb.AddLink("l", 100)}

	canceledFired := false
	f := fb.Start(links, 0, 0, func() { canceledFired = true })
	f.Cancel()
	f.Recycle()
	doneAt := -1.0
	g := fb.Start(links, 100, 0, func() { doneAt = eng.Now() })
	eng.Run()
	if canceledFired {
		t.Fatal("canceled zero-work flow fired its done callback")
	}
	if doneAt != 1 {
		t.Fatalf("flow started on the recycled object finished at %v, want 1", doneAt)
	}
	if !g.Done() || fb.ActiveFlows() != 0 {
		t.Fatalf("flow stranded: done=%v, active flows %d", g.Done(), fb.ActiveFlows())
	}

	// A queued zero-work completion keeps its flow out of the pool: q
	// reuses g's object, and the Start after the refused Recycle must
	// not get it back.
	g.Recycle()
	q := fb.Start(links, 0, 0, nil)
	q.Recycle()
	if r := fb.Start(links, 10, 0, nil); r == q {
		t.Fatal("Recycle pooled a zero-work flow whose completion is still queued")
	}
	eng.Run()
}

// TestAddLinkWithFlowsInFlightPanics: a second link cannot join a
// one-link fabric under a running kernel flow.
func TestAddLinkWithFlowsInFlightPanics(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng.SystemShard(), "test")
	fb.Start([]*Link{fb.AddLink("l", 100)}, 100, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("AddLink with a flow in flight did not panic")
		}
	}()
	fb.AddLink("late", 100)
}

// nodeFlowKinds are the node-local flow starts BenchmarkNodeLocalFlow
// exercises.
var nodeFlowKinds = []struct {
	name  string
	start func(n *Node, work float64, done func()) *Flow
}{
	{"cpu", func(n *Node, work float64, done func()) *Flow { return n.Compute(work, 2, done) }},
	{"disk", func(n *Node, work float64, done func()) *Flow { return n.DiskWrite(work, done) }},
}

// runToCompletion starts one flow, runs the engine until its done
// callback stops it, and hands the finished flow back to its pool, the
// way an owner at a phase boundary does.
func runToCompletion(eng *sim.Engine, start func(done func()) *Flow, stop func()) {
	f := start(stop)
	eng.Run()
	f.Recycle()
}

// TestNodeLocalFlowAllocationFree pins the cache-local node path: once
// the rack's flow pool and the shard's event free list are warm, a
// Compute or DiskWrite from start to completion allocates nothing, and
// neither do Transfer's and Fetch's link lists (a same-rack and a
// cross-rack Transfer, an unsplit Fetch).
func TestNodeLocalFlowAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, PaperConfig())
	n := c.Nodes[0]
	stop := func() { eng.Stop() }
	cases := []struct {
		name  string
		start func(done func()) *Flow
	}{
		{"transfer same rack", func(done func()) *Flow { return c.Transfer(c.Racks[0][0], c.Racks[0][1], 10, done) }},
		{"transfer cross rack", func(done func()) *Flow { return c.Transfer(c.Racks[0][0], c.Racks[1][0], 10, done) }},
		{"fetch", func(done func()) *Flow {
			f, _ := c.Fetch(n, 10, 0, 0, done)
			return f
		}},
		{"compute", func(done func()) *Flow { return n.Compute(9, 2, done) }},
		{"disk write", func(done func()) *Flow { return n.DiskWrite(9, done) }},
	}
	for _, tc := range cases {
		runToCompletion(eng, tc.start, stop) // warm the pools
		if a := testing.AllocsPerRun(100, func() { runToCompletion(eng, tc.start, stop) }); a != 0 {
			t.Errorf("%s: %v allocations per start-to-completion, want 0", tc.name, a)
		}
	}
}

// BenchmarkNodeLocalFlow measures one node-local flow from start to
// completion (and recycling) on a node's CPU and disk, alongside 0, 1
// or 2 standing flows on the same channel: the lone-flow case, and
// the small contended cases that make up nearly all node-local
// recomputes on the serving day.
func BenchmarkNodeLocalFlow(b *testing.B) {
	for _, k := range nodeFlowKinds {
		for standing := 0; standing <= 2; standing++ {
			b.Run(fmt.Sprintf("%s/concurrent=%d", k.name, standing), func(b *testing.B) {
				eng := sim.NewEngine()
				n := New(eng, PaperConfig()).Nodes[0]
				for i := 0; i < standing; i++ {
					k.start(n, 1e12, nil) // never finishes within the run
				}
				stop := func() { eng.Stop() }
				start := func(done func()) *Flow { return k.start(n, 9, done) }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runToCompletion(eng, start, stop)
				}
			})
		}
	}
}
