package yarn

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// sweepScenario is one randomized placement workload for the
// candidate-sweep equivalence test.
type sweepScenario struct {
	name      string
	cfg       cluster.Config
	sched     Scheduler
	scopeRack int     // >= 0: a scoped RM over this rack
	pUnc      float64 // share of requests with no node preference
	filter    bool    // install a NodeFilter (hot-spot fallback path)
	faults    bool    // node crashes/restores and blacklisting failures
}

func sweepConfig(racks, perRack int) cluster.Config {
	cfg := cluster.PaperConfig()
	cfg.RackSizes = make([]int, racks)
	for i := range cfg.RackSizes {
		cfg.RackSizes[i] = perRack
	}
	return cfg
}

// runSweepScenario drives one RM through sc with either the live
// assign or the frozen full sweep, and logs after every pass the clock,
// the cursor and each container placed (id, node, app), plus every
// allocation, loss and preemption callback with its request's tag.
func runSweepScenario(sc sweepScenario, seed int64, legacy bool) (log []string, candidatePasses uint32) {
	eng := sim.NewEngine()
	cfg := sc.cfg
	cfg.RackLocalNet = sc.scopeRack >= 0
	c := cluster.New(eng, cfg)
	var rm *ResourceManager
	if sc.scopeRack >= 0 {
		rm = NewScopedResourceManager(eng, c, sc.sched, sc.scopeRack)
	} else {
		rm = NewResourceManager(eng, c, sc.sched)
	}
	rm.BlacklistThreshold = 2
	rm.NodeExpirySecs = 6
	rm.HotSpotFallbackDelay = 4
	if sc.filter {
		rm.NodeFilter = func(n *cluster.Node) bool { return (n.ID+int(rm.shard.Now()/7))%3 != 0 }
	}
	rm.kickFn = func() {
		rm.assigning = false
		c0 := rm.nextContID
		if legacy {
			rm.legacyAssign()
		} else {
			rm.assign()
		}
		var b strings.Builder
		fmt.Fprintf(&b, "pass t=%g cur=%d", rm.shard.Now(), rm.assignCur)
		for _, app := range rm.apps {
			for _, ct := range app.live {
				if ct.ID >= c0 {
					fmt.Fprintf(&b, " c%d@n%d/a%d", ct.ID, ct.Node.ID, app.ID)
				}
			}
		}
		log = append(log, b.String())
	}

	rng := rand.New(rand.NewSource(seed))
	nodes := rm.Nodes()
	apps := []*App{rm.Submit("a", 1), rm.Submit("b", 2), rm.Submit("c", 1)}
	shapes := []Resource{{MemMB: 512, VCores: 1}, {MemMB: 1024, VCores: 2}, {MemMB: 2048, VCores: 4}, {MemMB: 3072, VCores: 6}}
	for i := 0; i < 400; i++ {
		at := rng.Float64() * 120
		app := apps[rng.Intn(len(apps))]
		req := &Request{Resource: shapes[rng.Intn(len(shapes))]}
		if rng.Float64() >= sc.pUnc {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				req.PreferredNodes = append(req.PreferredNodes, nodes[rng.Intn(len(nodes))])
			}
		}
		tag := i
		hold := 1 + rng.Float64()*15
		req.OnAllocate = func(ct *Container) {
			log = append(log, fmt.Sprintf("alloc r%d c%d@n%d", tag, ct.ID, ct.Node.ID))
			eng.After(hold, func() {
				if !ct.released {
					rm.Release(ct)
				}
			})
		}
		req.OnNodeLost = func(ct *Container) { log = append(log, fmt.Sprintf("lost r%d c%d", tag, ct.ID)) }
		req.OnPreempt = func(ct *Container) { log = append(log, fmt.Sprintf("preempt r%d c%d", tag, ct.ID)) }
		eng.At(at, func() { app.Request(req) })
		if rng.Intn(10) == 0 {
			eng.At(at+rng.Float64()*3, func() {
				if app.CancelRequest(req) {
					log = append(log, fmt.Sprintf("cancel r%d", tag))
				}
			})
		}
	}
	if sc.faults {
		for i := 0; i < 12; i++ {
			n := nodes[rng.Intn(len(nodes))]
			at := rng.Float64() * 110
			eng.At(at, func() { c.KillNode(n) })
			eng.At(at+2+rng.Float64()*10, func() { c.RestoreNode(n) })
		}
		for i := 0; i < 40; i++ {
			n := nodes[rng.Intn(len(nodes))]
			eng.At(rng.Float64()*120, func() { rm.ReportTaskFailure(n) })
		}
	}
	eng.Run()
	return log, rm.markEpoch
}

// TestCandidateSweepMatchesFullSweep pins the candidate-node sweep to
// the frozen full sweep across delay windows, rack eligibility, down
// and blacklisted nodes, the NodeFilter fallback, both schedulers, a
// heterogeneous (non-contiguous rack) layout and a scoped RM.
func TestCandidateSweepMatchesFullSweep(t *testing.T) {
	hetero := cluster.HeterogeneousPaperConfig()
	hetero.RackSizes = []int{6, 6, 6}
	scenarios := []sweepScenario{
		{name: "fifo/preferred-only", cfg: sweepConfig(6, 12), sched: FIFOScheduler{}, scopeRack: -1},
		{name: "fair/mixed", cfg: sweepConfig(4, 9), sched: FairScheduler{}, scopeRack: -1, pUnc: 0.15},
		{name: "fifo/filter", cfg: sweepConfig(3, 9), sched: FIFOScheduler{}, scopeRack: -1, filter: true},
		{name: "fair/faults", cfg: sweepConfig(4, 8), sched: FairScheduler{}, scopeRack: -1, faults: true, pUnc: 0.05},
		{name: "fifo/hetero", cfg: hetero, sched: FIFOScheduler{}, scopeRack: -1, filter: true, faults: true},
		{name: "fifo/scoped", cfg: sweepConfig(4, 16), sched: FIFOScheduler{}, scopeRack: 2, faults: true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				want, _ := runSweepScenario(sc, seed, true)
				got, cand := runSweepScenario(sc, seed, false)
				if cand == 0 {
					t.Fatalf("seed %d: no pass took the candidate sweep", seed)
				}
				if i := firstDiff(want, got); i >= 0 {
					t.Fatalf("seed %d: diverged at log line %d:\n  full sweep: %s\n  candidate:  %s",
						seed, i, lineAt(want, i), lineAt(got, i))
				}
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func lineAt(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end of log>"
}
