package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// netOp is one flow start in a network replay: links are indices into
// the replay's link capacities (nil = a cap-only flow).
type netOp struct {
	at       float64
	links    []int
	work     float64
	rateCap  float64
	cancelAt float64 // < 0: never canceled
}

// capChange is a SetCapacity call in a network replay.
type capChange struct {
	at       float64
	link     int
	capacity float64
}

// netSchedule is a replay: link capacities, flow starts and capacity
// changes.
type netSchedule struct {
	caps    []float64
	ops     []netOp
	changes []capChange
}

// Rack network shape for the replays: 2 racks of 8 nodes, each node a
// receive and a transmit NIC, each rack an uplink.
const (
	netRacks        = 2
	netNodesPerRack = 8
	netNodes        = netRacks * netNodesPerRack
)

func nicIn(n int) int    { return 2 * n }
func nicOut(n int) int   { return 2*n + 1 }
func uplink(r int) int   { return 2*netNodes + r }
func nodeRack(n int) int { return n / netNodesPerRack }

// Fetch cap modes: every fetch capped alike (parallel copies × stream
// rate, one setting fleet-wide), caps drawn per fetch, or no caps.
const (
	uniformCaps = iota
	mixedCaps
	noCaps
)

// rackNetSchedule draws a random network replay: split and unsplit
// fetches, same-rack (2-link) and cross-rack (4-link) transfers, a few
// cap-only flows, cancels, same-instant twins and capacity dips.
func rackNetSchedule(seed int64, capMode int) netSchedule {
	rng := rand.New(rand.NewSource(seed))
	var s netSchedule
	for n := 0; n < netNodes; n++ {
		s.caps = append(s.caps, 117, 117) // nic-in, nic-out
	}
	for r := 0; r < netRacks; r++ {
		s.caps = append(s.caps, 250)
	}
	fetchCap := func() float64 {
		switch capMode {
		case uniformCaps:
			return 100
		case mixedCaps:
			if rng.Intn(4) == 0 {
				return 0
			}
			return 5 + rng.Float64()*150
		}
		return 0
	}
	add := func(op netOp, twin bool) {
		if rng.Intn(5) == 0 {
			op.cancelAt = op.at + rng.Float64()*10
		}
		s.ops = append(s.ops, op)
		if twin {
			// An identical twin started at the same instant finishes at
			// the same instant, so the firing order pins the order in
			// which completions are rescheduled.
			op.cancelAt = -1
			s.ops = append(s.ops, op)
		}
	}
	for i := 0; i < 90; i++ {
		at := rng.Float64() * 40
		work := 1 + rng.Float64()*300
		twin := rng.Intn(6) == 0
		switch kind := rng.Intn(10); {
		case kind < 4: // split fetch: a cross-rack part, then a rack-local one
			dst := rng.Intn(netNodes)
			frac := []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
			rateCap := fetchCap()
			add(netOp{at: at, links: []int{nicIn(dst), uplink(nodeRack(dst))},
				work: work * frac, rateCap: rateCap * frac, cancelAt: -1}, twin)
			add(netOp{at: at, links: []int{nicIn(dst)},
				work: work * (1 - frac), rateCap: rateCap * (1 - frac), cancelAt: -1}, twin)
		case kind < 6: // unsplit fetch
			dst := rng.Intn(netNodes)
			add(netOp{at: at, links: []int{nicIn(dst)}, work: work, rateCap: fetchCap(), cancelAt: -1}, twin)
		case kind < 9: // transfer
			src, dst := rng.Intn(netNodes), rng.Intn(netNodes)
			if src == dst {
				dst = (dst + 1) % netNodes
			}
			links := []int{nicOut(src), nicIn(dst)}
			if nodeRack(src) != nodeRack(dst) {
				links = append(links, uplink(nodeRack(src)), uplink(nodeRack(dst)))
			}
			add(netOp{at: at, links: links, work: work, cancelAt: -1}, twin)
		default: // cap-only flow
			add(netOp{at: at, work: work, rateCap: 1 + rng.Float64()*50, cancelAt: -1}, twin)
		}
	}
	for i := 0; i < 6; i++ {
		l := rng.Intn(len(s.caps))
		at := rng.Float64() * 40
		s.changes = append(s.changes,
			capChange{at: at, link: l, capacity: s.caps[l] * (0.3 + rng.Float64()*0.6)},
			capChange{at: at + rng.Float64()*15, link: l, capacity: s.caps[l]})
	}
	return s
}

// netRun is what one replay observed: per-op rates at each sample time
// (NaN when inactive), every link's current rate, meter average and
// peak at each sample and at the end, completion times (NaN when never
// completed) and the order in which done callbacks fired.
type netRun struct {
	rates, linkRate, linkAvg, linkPeak []float64
	doneAt                             []float64
	order                              []int
}

// runNetSchedule replays s on a network fabric: through the production
// recompute, or with legacy through the frozen general recompute.
func runNetSchedule(s netSchedule, legacy bool) netRun {
	eng := sim.NewEngine()
	eng.MaxEvents = 5_000_000
	fb := NewFabric(eng.SystemShard(), "network")
	links := make([]*Link, len(s.caps))
	for i, c := range s.caps {
		links[i] = fb.AddLink(fmt.Sprintf("l%d", i), c)
	}
	start, cancel, setCapacity := fb.Start, fb.Cancel, fb.SetCapacity
	if legacy {
		start, cancel, setCapacity = fb.legacyStart, fb.legacyCancel, fb.legacySetCapacity
	}
	var run netRun
	flows := make([]*Flow, len(s.ops))
	run.doneAt = make([]float64, len(s.ops))
	for i := range run.doneAt {
		run.doneAt[i] = math.NaN()
	}
	for i, op := range s.ops {
		i, op := i, op
		eng.At(op.at, func() {
			var ls []*Link
			for _, li := range op.links {
				ls = append(ls, links[li])
			}
			flows[i] = start(ls, op.work, op.rateCap, func() {
				run.doneAt[i] = eng.Now()
				run.order = append(run.order, i)
			})
		})
		if op.cancelAt >= 0 {
			eng.At(op.cancelAt, func() { cancel(flows[i]) })
		}
	}
	for _, c := range s.changes {
		c := c
		eng.At(c.at, func() { setCapacity(links[c.link], c.capacity) })
	}
	sampleLinks := func() {
		for _, l := range links {
			run.linkRate = append(run.linkRate, l.CurrentRate())
			run.linkAvg = append(run.linkAvg, l.used.Average(eng.Now()))
			run.linkPeak = append(run.linkPeak, l.used.Peak())
		}
	}
	for _, st := range sampleTimes() {
		eng.At(st, func() {
			for _, f := range flows {
				r := math.NaN()
				if f != nil && !f.Done() {
					r = f.Rate()
				}
				run.rates = append(run.rates, r)
			}
			sampleLinks()
		})
	}
	eng.Run()
	sampleLinks()
	return run
}

// boundarySchedule puts a capped flow exactly on the freeze threshold:
// A (cap c, alone on link X) shares X with B, and B shares link Y with
// C. Y's capacity is 2t with t = c - relEps·c, so once C starts round
// 1's delta is t, A reaches its freeze threshold exactly, and B and C
// exhaust Y. The loop freezes all three in round 1 (>= at the cap);
// a strict > would keep A active for a second round.
func boundarySchedule() netSchedule {
	c := 10.0
	t := c - relEps*c
	return netSchedule{
		caps: []float64{1000, 2 * t},
		ops: []netOp{
			{at: 0, links: []int{0}, work: 1e4, rateCap: c, cancelAt: -1},
			{at: 0, links: []int{0, 1}, work: 1e4, cancelAt: -1},
			{at: 0, links: []int{1}, work: 50, cancelAt: 20},
		},
	}
}

// TestOneRoundKernelMatchesGeneral pins the one-round kernel
// (Fabric.oneRound) to the frozen general recompute
// (legacy_recompute_test.go). Random schedules on a rack-shaped
// network fabric — 2 racks × 8 nodes with uplinks; split and unsplit
// fetches with uniform, mixed or no caps; 2- and 4-link transfers;
// cap-only flows; cancels; capacity dips; same-instant twins — and a
// schedule that sits exactly on the cap freeze threshold are replayed
// through both. Every sampled flow rate, every link's rate, meter
// average and peak, every completion time and the firing order must
// agree bit for bit.
func TestOneRoundKernelMatchesGeneral(t *testing.T) {
	type replay struct {
		name string
		s    netSchedule
	}
	replays := []replay{{"boundary", boundarySchedule()}}
	for seed := int64(500); seed < 512; seed++ {
		for mode, caps := range []string{"uniform", "mixed", "no"} {
			replays = append(replays, replay{fmt.Sprintf("seed %d, %s caps", seed, caps), rackNetSchedule(seed, mode)})
		}
	}
	for _, r := range replays {
		kernel := runNetSchedule(r.s, false)
		general := runNetSchedule(r.s, true)
		for _, c := range []struct {
			name string
			k, g []float64
		}{
			{"flow rate", kernel.rates, general.rates},
			{"link rate", kernel.linkRate, general.linkRate},
			{"meter average", kernel.linkAvg, general.linkAvg},
			{"meter peak", kernel.linkPeak, general.linkPeak},
			{"completion time", kernel.doneAt, general.doneAt},
		} {
			if i, ok := sameBits(c.k, c.g); !ok {
				t.Fatalf("%s: %s differs at %d (len %d vs %d)", r.name, c.name, i, len(c.k), len(c.g))
			}
		}
		if fmt.Sprint(kernel.order) != fmt.Sprint(general.order) {
			t.Fatalf("%s: firing order differs:\nkernel  %v\ngeneral %v", r.name, kernel.order, general.order)
		}
	}
}
