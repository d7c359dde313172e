// Package cluster models the hardware substrate of a MapReduce cluster:
// nodes with CPUs, memory, disks and NICs arranged in racks. Shared
// channels (disk bandwidth, NIC bandwidth, rack uplinks, CPU pools) are
// modelled as max-min fair-shared links; concurrent flows on a link
// progress at the fair-share rate, recomputed event-driven whenever a
// flow starts or finishes. This reproduces the contention effects
// (spill I/O, shuffle congestion, CPU caps from container vcores) that
// MRONLINE's tuning exploits on the paper's physical 19-node cluster.
//
// Fair-share recomputation is incremental: each link keeps a membership
// list of its active flows, and a flow change only recomputes the
// connected component of links and flows reachable from the changed
// flow. Flows in other components keep their rates and their scheduled
// completion events untouched (see docs/MODEL.md, "Fabric complexity &
// incremental recomputation"). On a one-link fabric — each node's CPU
// pool and disk — the component is always the whole link, and a
// dedicated kernel fills it directly; a component whose first filling
// round freezes every flow is finished in closed form (docs/MODEL.md
// §9).
//
// Units: data quantities are in MB (1e6 bytes) and rates in MB/s; CPU
// work is in core-seconds and CPU rates in cores. Time is in seconds.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Link is a capacity-constrained shared channel: a disk, a NIC
// direction, a rack uplink, or a node's CPU pool.
type Link struct {
	Name     string
	Capacity float64 // units per second

	used metrics.Meter // current aggregate rate of flows on this link

	// flows is the membership list of active flows crossing this link,
	// maintained by Fabric.Start, Fabric.remove and Link.removeAt. Order
	// is insertion order perturbed by swap-removal — deterministic, but
	// arbitrary.
	flows []*Flow

	// scratch state for the progressive-filling computation; remaining
	// doubles as the per-link rate accumulator for the meter update.
	remaining float64
	count     int
	visit     uint64 // recompute epoch this link was last swept into
}

// Utilization returns the time-average fraction of capacity in use
// through time now.
func (l *Link) Utilization(now float64) float64 {
	if l.Capacity <= 0 {
		return 0
	}
	return l.used.Average(now) / l.Capacity
}

// CurrentRate returns the aggregate rate currently flowing on the link.
func (l *Link) CurrentRate() float64 { return l.used.Level() }

// inlineLinks is the most links one flow may cross: a cross-rack
// transfer's two NICs plus two rack uplinks. Flows keep their links
// and per-link positions inline, so a start allocates nothing beyond
// the (pooled) Flow itself.
const inlineLinks = 4

// Flow is an in-progress transfer or computation consuming fair-share
// capacity on one or more links, optionally bounded by a rate cap (for
// CPU flows, the container's vcore allowance).
type Flow struct {
	fabric      *Fabric
	remaining   float64
	rateCap     float64 // 0 means unlimited
	rate        float64
	prevRate    float64 // scratch: rate on entry to the current recompute
	lastAdvance float64
	done        func()
	// onComplete is the cached completion callback, allocated once per
	// Flow object so that rescheduling on every rate change stays
	// allocation-free. It captures only the flow, so it survives the
	// flow moving to another fabric of the same pool.
	onComplete func()
	ev         *sim.Event
	// onAbort, when set, is scheduled (asynchronously) if the flow is
	// torn down by Fabric.Abort — a fault, not a cancellation by the
	// flow's owner — so remote consumers can fail over instead of
	// waiting forever on a done callback that will never fire.
	onAbort func()
	visit   uint64 // recompute epoch this flow was last swept into

	links [inlineLinks]*Link
	pos   [inlineLinks]int32 // this flow's index in links[i].flows
	// index is the flow's position in its fabric's flow list — on a
	// one-link fabric, the link's list (see Fabric.single) — and -1
	// when the flow is in no list.
	index    int32
	nlinks   uint8
	finished bool
	pooled   bool // sitting in a free list (guards double-recycle)
}

// linkSet returns the links the flow crosses.
func (f *Flow) linkSet() []*Link { return f.links[:f.nlinks] }

// Remaining returns the amount of work left, valid as of the last
// recomputation that touched this flow's component.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the current fair-share rate.
func (f *Flow) Rate() float64 { return f.rate }

// Done reports whether the flow completed or was canceled.
func (f *Flow) Done() bool { return f.finished }

// Cancel aborts the flow; its done callback will not fire. Canceling
// a completed flow is a no-op.
func (f *Flow) Cancel() { f.fabric.Cancel(f) }

// SetOnAbort registers fn to run (asynchronously) if the flow is killed
// by Fabric.Abort — e.g. when the node it crosses crashes. fn does not
// run on normal completion or on Cancel.
func (f *Flow) SetOnAbort(fn func()) { f.onAbort = fn }

// flowPool is the free list of recycled Flow objects plus the
// recompute scratch state, shared by every fabric that schedules on one
// shard: a rack's node-local fabrics share their rack's pool, and a
// network fabric has its own. Sharing is safe because a pool's fabrics
// never run concurrently and a recompute never re-enters another.
type flowPool struct {
	// free holds recycled flows (see Flow.Recycle), most recently
	// finished last, so a Start reuses the flow still warm in cache.
	free []*Flow

	epoch uint64 // recompute generation for visit stamps

	// Scratch slices reused across recomputations to keep the hot path
	// allocation-free; contents are only valid during one recompute.
	dirtyLinks []*Link
	dirtyFlows []*Flow
	// orderedFlows is the second component buffer used when restoring
	// index order by scanning fb.flows; it swaps roles with dirtyFlows.
	orderedFlows []*Flow
	// activeFlows is the progressive-filling worklist of not-yet-frozen
	// flows (compacted by swap-removal as flows freeze).
	activeFlows []*Flow
}

// Fabric manages a set of links whose flows may interact (share links).
// Separate resource domains (each node's disk, each node's CPU pool,
// the cluster network) use separate fabrics so that rate recomputation
// stays local to the domain; within a fabric, recomputation stays local
// to the connected component of the changed flow.
type Fabric struct {
	Name  string
	shard *sim.Shard
	links []*Link
	// flows lists the fabric's active flows in start order perturbed by
	// swap-removal. On a one-link fabric it holds only link-less
	// (cap-only) flows: the flows crossing the link live in the link's
	// own list, which sees exactly the appends and swap-removals this
	// list would.
	flows []*Flow
	// single is the fabric's only link, or nil unless it has exactly
	// one; flows crossing it take the single-link kernel.
	single *Link
	pool   *flowPool
}

// NewFabric returns an empty fabric bound to the shard that owns its
// state: the rack shard for a node-local domain (disk, CPU pool), the
// system shard for the cluster network. Every completion event the
// fabric schedules carries that affinity.
func NewFabric(shard *sim.Shard, name string) *Fabric {
	return &Fabric{Name: name, shard: shard, pool: &flowPool{}}
}

// Shard returns the shard the fabric schedules on.
func (fb *Fabric) Shard() *sim.Shard { return fb.shard }

// AddLink registers a link with the fabric and returns it. It panics
// while the fabric has flows in flight.
func (fb *Fabric) AddLink(name string, capacity float64) *Link {
	l := &Link{}
	fb.addLink(l, name, capacity)
	return l
}

// addLink initializes l in place and registers it. Links are topology:
// none may join while flows are in flight, since a one-link fabric
// keeps its flows in the link's list, not the fabric's.
func (fb *Fabric) addLink(l *Link, name string, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("cluster: link %q must have positive capacity, got %v", name, capacity))
	}
	if fb.ActiveFlows() > 0 {
		panic(fmt.Sprintf("cluster: link %q added to fabric %q with flows in flight", name, fb.Name))
	}
	l.Name, l.Capacity = name, capacity
	l.used.Set(fb.shard.Now(), 0)  // anchor utilization accounting at creation
	fb.links = append(fb.links, l) //mrlint:ignore retained-append one entry per topology link, built once at construction
	fb.single = nil
	if len(fb.links) == 1 {
		fb.single = l
	}
}

// ActiveFlows returns the number of in-flight flows in the fabric.
func (fb *Fabric) ActiveFlows() int {
	if fb.single != nil {
		return len(fb.flows) + len(fb.single.flows)
	}
	return len(fb.flows)
}

// Start begins a flow of `work` units across the given links, at most
// rateCap units/s (0 = unlimited), invoking done when the work
// completes. Links must belong to this fabric and must be distinct, at
// most four of them; the fabric copies them, so the slice may live on
// the caller's stack. A flow must be constrained by at least one link
// or a positive rate cap.
func (fb *Fabric) Start(links []*Link, work, rateCap float64, done func()) *Flow {
	if len(links) == 0 && rateCap <= 0 {
		panic("cluster: flow with no links and no rate cap would be infinitely fast")
	}
	if len(links) > inlineLinks {
		panic(fmt.Sprintf("cluster: flow crosses %d links, at most %d supported", len(links), inlineLinks))
	}
	if work < 0 || math.IsNaN(work) || math.IsInf(work, 0) {
		panic(fmt.Sprintf("cluster: invalid flow work %v", work))
	}
	for i := 1; i < len(links); i++ {
		for j := 0; j < i; j++ {
			if links[i] == links[j] {
				panic(fmt.Sprintf("cluster: flow lists link %q twice", links[i].Name))
			}
		}
	}
	f := fb.pool.get(fb)
	f.nlinks = uint8(copy(f.links[:], links))
	f.remaining = work
	f.rateCap = rateCap
	f.done = done
	f.index = -1
	if work == 0 {
		// Zero-size work completes immediately but asynchronously, to
		// keep callback ordering uniform, and never joins a flow list.
		// The completion is held in f.ev like any other, so Cancel
		// withdraws it and Recycle refuses the flow while it is queued.
		f.ev = fb.shard.After(0, f.onComplete)
		return f
	}
	if l := fb.single; l != nil && f.nlinks == 1 {
		f.index = int32(len(l.flows))
		f.pos[0] = f.index
		l.flows = append(l.flows, f)
	} else {
		f.index = int32(len(fb.flows))
		fb.flows = append(fb.flows, f)
		for i, l := range f.linkSet() {
			f.pos[i] = int32(len(l.flows))
			l.flows = append(l.flows, f)
		}
	}
	fb.recompute(f.linkSet(), f)
	return f
}

// get pops the most recently recycled Flow or allocates a fresh one,
// binding it to fb. A fresh flow gets its completion callback here;
// a pooled one keeps it.
func (p *flowPool) get(fb *Fabric) *Flow {
	var f *Flow
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		f.pooled = false
		f.finished = false
	} else {
		f = &Flow{}
		f.onComplete = func() { f.fabric.complete(f) }
	}
	f.fabric = fb
	return f
}

// recycleFlow resets a flow that has fully left its fabric and parks
// it in the pool's free list. Flows still queued, in flight, or already
// pooled are left alone, so callers may invoke it unconditionally
// during teardown.
func (fb *Fabric) recycleFlow(f *Flow) {
	if f.pooled || !f.finished || f.index >= 0 || f.ev != nil {
		return
	}
	f.pooled = true
	f.links = [inlineLinks]*Link{}
	f.nlinks = 0
	f.remaining = 0
	f.rateCap = 0
	f.rate = 0
	f.prevRate = 0
	f.lastAdvance = 0
	f.done = nil
	f.onAbort = nil
	fb.pool.free = append(fb.pool.free, f)
}

// Recycle hands a finished flow back to its fabric's pool for reuse by
// a future Start on any fabric sharing that pool. Strict ownership
// contract: call it only when you hold the last reference. After
// Recycle the object may be handed to an unrelated Start at once, so a
// retained pointer must never be Canceled or inspected again. The
// fabric drops its own reference when the flow completes, so the owner
// of a completed flow — the HDFS op that started it, or a task at the
// phase boundary its flows' join callback opened — may recycle it.
// Unfinished, still-queued and already-recycled flows are ignored,
// which makes Recycle safe to call unconditionally when tearing down a
// completed owner.
func (f *Flow) Recycle() {
	if f == nil {
		return
	}
	f.fabric.recycleFlow(f)
}

// Cancel aborts a flow; done is not called.
func (fb *Fabric) Cancel(f *Flow) {
	if f == nil || f.finished {
		return
	}
	f.finished = true
	if f.ev != nil {
		fb.shard.Cancel(f.ev)
		f.ev = nil
	}
	if f.index >= 0 {
		fb.detach(f)
	}
}

// Abort tears a flow down like Cancel, then schedules the flow's
// registered onAbort callback (if any). Used by fault injection: the
// owner did not ask for the teardown, so it must be told.
func (fb *Fabric) Abort(f *Flow) {
	if f == nil || f.finished {
		return
	}
	fn := f.onAbort
	fb.Cancel(f)
	if fn != nil {
		fb.shard.After(0, fn)
	}
}

// SetCapacity changes a link's capacity in place and rebalances the
// link's connected component. Fault injection uses it to model slow
// nodes, degraded disks and flapping NICs; in-flight flows simply
// continue at the recomputed fair-share rates.
func (fb *Fabric) SetCapacity(l *Link, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("cluster: link %q capacity must stay positive, got %v", l.Name, capacity))
	}
	if capacity == l.Capacity {
		return
	}
	l.Capacity = capacity
	seeds := [1]*Link{l}
	fb.recompute(seeds[:], nil)
}

// detach removes an in-list flow from the fabric and rebalances what
// it leaves behind.
func (fb *Fabric) detach(f *Flow) {
	if l := fb.single; l != nil && f.nlinks == 1 {
		l.removeAt(f.index)
		f.index = -1
	} else {
		fb.remove(f)
	}
	fb.recompute(f.linkSet(), nil)
}

// removeAt swap-removes the flow at position p of a one-link fabric's
// link list, where a flow's index and its position coincide.
func (l *Link) removeAt(p int32) {
	last := len(l.flows) - 1
	moved := l.flows[last]
	l.flows[p] = moved
	moved.index, moved.pos[0] = p, p
	l.flows[last] = nil
	l.flows = l.flows[:last]
}

// remove detaches f from the fabric's flow list and from every link's
// membership list (swap-removal, fixing up the moved entries' indices).
func (fb *Fabric) remove(f *Flow) {
	i := f.index
	last := len(fb.flows) - 1
	fb.flows[i] = fb.flows[last]
	fb.flows[i].index = i
	fb.flows[last] = nil
	fb.flows = fb.flows[:last]
	f.index = -1
	for li, l := range f.linkSet() {
		p := f.pos[li]
		lastF := len(l.flows) - 1
		moved := l.flows[lastF]
		l.flows[p] = moved
		l.flows[lastF] = nil
		l.flows = l.flows[:lastF]
		if moved != f {
			for mi, ml := range moved.linkSet() {
				if ml == l {
					moved.pos[mi] = p
					break
				}
			}
		}
	}
}

func (fb *Fabric) complete(f *Flow) {
	if f.finished {
		return
	}
	f.finished = true
	f.ev = nil
	f.remaining = 0
	// Rebalance before the callback so that work started inside the
	// callback sees up-to-date rates (it will trigger its own
	// recompute anyway, but intermediate meter accounting stays exact).
	if f.index >= 0 {
		fb.detach(f)
	}
	if f.done != nil {
		f.done()
	}
}

// reschedule moves f's completion event after a recompute, but only
// when its rate actually changed (exact float comparison: an epsilon
// window would make the outcome depend on accumulated drift and break
// reproducibility).
func (fb *Fabric) reschedule(f *Flow, now float64) {
	if f.settled() {
		return
	}
	if f.rate > 0 {
		if f.ev != nil {
			// Move the queued completion in place instead of
			// cancel+allocate (canceled events are never recycled).
			f.ev = fb.shard.Reschedule(f.ev, now+f.remaining/f.rate)
		} else {
			f.ev = fb.shard.After(f.remaining/f.rate, f.onComplete)
		}
	} else if f.ev != nil {
		fb.shard.Cancel(f.ev)
		f.ev = nil
	}
}

// settled reports whether f's scheduled completion is still exact
// after a recompute: the rate is bit-identical to before, and either
// its completion event is queued or, at rate zero, none is due.
func (f *Flow) settled() bool {
	return f.rate == f.prevRate && (f.ev != nil || f.rate == 0)
}

// advance brings f's remaining work up to now at its current rate and
// remembers that rate for reschedule.
func (f *Flow) advance(now float64) {
	if f.rate > 0 {
		f.remaining -= f.rate * (now - f.lastAdvance)
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastAdvance = now
	f.prevRate = f.rate
}

// relEps is progressive filling's relative freeze tolerance for caps
// and exhausted links.
const relEps = 1e-12

// frozen is progressive filling's freeze test, run after each round
// on the rates and the links' remaining capacity it left: f stops
// growing once it reaches its cap or crosses an exhausted link.
func (f *Flow) frozen() bool {
	if f.rateCap > 0 && f.rate >= f.rateCap-relEps*f.rateCap {
		return true
	}
	for _, l := range f.linkSet() {
		if l.remaining <= relEps*l.Capacity {
			return true
		}
	}
	return false
}

// recomputeSingle is recompute for a one-link fabric, where the
// component is always the link and every flow on it. It runs the same
// progressive filling straight over the link's list, which is index
// order by construction: no component sweep, no epoch stamps, no sort.
// Every flow's rate, the meter sum and the reschedule order match the
// general path bit for bit (docs/MODEL.md §9).
func (fb *Fabric) recomputeSingle(l *Link) {
	now := fb.shard.Now()
	flows := l.flows
	switch len(flows) {
	case 0:
		l.used.Set(now, 0)
		return
	case 1:
		// A lone flow fills the link in one round: share = capacity/1,
		// or its cap when that is tighter.
		f := flows[0]
		f.advance(now)
		f.rate = l.Capacity
		if f.rateCap > 0 && f.rateCap < f.rate {
			f.rate = f.rateCap
		}
		l.used.Set(now, f.rate)
		fb.reschedule(f, now)
		return
	}
	for _, f := range flows {
		f.advance(now)
		f.rate = 0
	}
	// Every active flow crosses the one link, so the link's count is
	// the worklist's length; once the link is exhausted every flow
	// freezes.
	active := append(fb.pool.activeFlows[:0], flows...)
	fb.pool.activeFlows = active // keep grown capacity for the next recompute
	remaining := l.Capacity
	for len(active) > 0 {
		delta := remaining / float64(len(active))
		for _, f := range active {
			if f.rateCap > 0 {
				if room := f.rateCap - f.rate; room < delta {
					delta = room
				}
			}
		}
		if delta < 0 {
			delta = 0
		}
		for _, f := range active {
			f.rate += delta
		}
		remaining -= delta * float64(len(active))
		if remaining <= relEps*l.Capacity {
			break
		}
		for i := 0; i < len(active); {
			if f := active[i]; f.rateCap > 0 && f.rate >= f.rateCap-relEps*f.rateCap {
				last := len(active) - 1
				active[i] = active[last]
				active = active[:last]
			} else {
				i++
			}
		}
		if delta == 0 {
			break
		}
	}
	sum := 0.0
	for _, f := range flows {
		sum += f.rate
	}
	l.used.Set(now, sum)
	for _, f := range flows {
		fb.reschedule(f, now)
	}
}

// recompute rebalances fair-share rates after a flow change. seeds are
// the changed flow's links (still attached for a start, already
// detached for a completion or cancel — which is what lets a component
// split apart); seedFlow, when non-nil, is a newly started flow that
// must be included even when it has no links (cap-only flows form
// singleton components).
//
// Only the connected component of links and flows reachable from the
// seeds is touched: their work is advanced to now at the old rates,
// rates are recomputed with uniform-increment progressive filling, link
// meters are re-aggregated from the membership lists, and completion
// events are rescheduled — but only for flows whose rate actually
// changed (exact float comparison: an epsilon window would make the
// outcome depend on accumulated drift and break reproducibility).
// Flows outside the component share no link with any flow inside it,
// transitively, so their fair-share rates — and therefore their
// scheduled completion events — are provably unaffected. On a
// one-link fabric the component is the whole link, and recomputeSingle
// does the work; a component that the first filling round settles is
// finished by oneRound.
func (fb *Fabric) recompute(seeds []*Link, seedFlow *Flow) {
	if fb.single != nil && len(seeds) == 1 {
		fb.recomputeSingle(seeds[0])
		return
	}
	now := fb.shard.Now()
	p := fb.pool

	// Sweep out the connected component (links and flows) from the
	// seeds. visit stamps make membership checks O(1) without clearing;
	// the epoch is pool-wide, so a flow recycled from another fabric of
	// the pool never carries a stamp from the future.
	p.epoch++
	ep := p.epoch
	links := p.dirtyLinks[:0]
	flows := p.dirtyFlows[:0]
	for _, l := range seeds {
		if l.visit != ep {
			l.visit = ep
			links = append(links, l)
		}
	}
	if seedFlow != nil && seedFlow.visit != ep {
		seedFlow.visit = ep
		flows = append(flows, seedFlow)
	}
	for i := 0; i < len(links); i++ {
		for _, f := range links[i].flows {
			if f.visit != ep {
				f.visit = ep
				flows = append(flows, f)
				for _, fl := range f.linkSet() {
					if fl.visit != ep {
						fl.visit = ep
						links = append(links, fl)
					}
				}
			}
		}
	}
	p.dirtyLinks = links // keep grown capacity for the next recompute
	p.dirtyFlows = flows

	if len(flows) == 0 {
		// The changed flow was the last one on its links.
		for _, l := range links {
			l.used.Set(now, 0)
		}
		return
	}

	// Advance the component's remaining work at the old rates before
	// changing them. Untouched flows keep accruing at their (still
	// valid) rates; they are advanced whenever their component is next
	// recomputed or their completion event fires.
	for _, f := range flows {
		f.advance(now)
	}
	if fb.oneRound(links, flows, now) {
		return
	}

	// Progressive filling, scoped to the component. The arithmetic is
	// identical to a whole-fabric recomputation restricted to this
	// component: rates accumulate uniform increments bounded by the
	// tightest link share or cap room, and the result does not depend
	// on the iteration order of links or flows.
	for _, l := range links {
		l.remaining = l.Capacity
		l.count = 0
	}
	// active is the not-yet-frozen worklist, compacted by swap-removal
	// as flows freeze. The filling result is order-independent: every
	// active flow accumulates the same delta per round, and the freeze
	// decision reads only f.rate/f.rateCap and l.remaining, all fixed
	// during a freeze sweep (l.count changes only affect later rounds).
	active := p.activeFlows[:0]
	for _, f := range flows {
		f.rate = 0
		active = append(active, f)
		for _, l := range f.linkSet() {
			l.count++
		}
	}
	p.activeFlows = active // keep grown capacity for the next recompute
	for len(active) > 0 {
		delta := math.Inf(1)
		for _, l := range links {
			if l.count > 0 {
				if share := l.remaining / float64(l.count); share < delta {
					delta = share
				}
			}
		}
		for _, f := range active {
			if f.rateCap > 0 {
				if room := f.rateCap - f.rate; room < delta {
					delta = room
				}
			}
		}
		if math.IsInf(delta, 1) {
			// No link and no cap constrains the remaining flows; this
			// cannot happen given the Start precondition, but guard
			// against an all-caps-reached stall.
			break
		}
		if delta < 0 {
			delta = 0
		}
		for _, f := range active {
			f.rate += delta
		}
		for _, l := range links {
			l.remaining -= delta * float64(l.count)
		}
		// Freeze flows that hit their cap or sit on an exhausted link.
		for i := 0; i < len(active); {
			f := active[i]
			if f.frozen() {
				for _, l := range f.linkSet() {
					l.count--
				}
				last := len(active) - 1
				active[i] = active[last]
				active = active[:last]
			} else {
				i++
			}
		}
		if delta == 0 && len(active) > 0 {
			// All remaining flows are rate-0 (exhausted links with
			// count>0 but zero remaining). Freeze them to terminate.
			for _, f := range active {
				for _, l := range f.linkSet() {
					l.count--
				}
			}
			active = active[:0]
		}
	}

	// Update link meters by per-link aggregation over the component
	// (every flow on a dirty link is itself dirty, by closure), and
	// reschedule completions for flows whose rate changed. Iterate in
	// fabric insertion-array order so that meter summation order and
	// event sequence assignment match a whole-fabric recomputation.
	//
	// Restoring that order is sort-free: small components use an
	// allocation-free insertion sort; larger ones are re-collected by
	// scanning fb.flows, which is index-ordered by construction (a
	// flow's index is its position), picking out this epoch's members.
	// Both produce strictly ascending index order.
	if len(flows) <= 24 {
		for i := 1; i < len(flows); i++ {
			f := flows[i]
			j := i - 1
			for j >= 0 && flows[j].index > f.index {
				flows[j+1] = flows[j]
				j--
			}
			flows[j+1] = f
		}
	} else {
		ordered := p.orderedFlows[:0]
		for _, g := range fb.flows {
			if g.visit != ep {
				continue
			}
			ordered = append(ordered, g)
			if len(ordered) == len(flows) {
				break
			}
		}
		p.orderedFlows = p.dirtyFlows // swap buffers, keeping both grown
		p.dirtyFlows = ordered
		flows = ordered
	}
	for _, l := range links {
		l.remaining = 0
	}
	for _, f := range flows {
		for _, l := range f.linkSet() {
			l.remaining += f.rate
		}
	}
	for _, l := range links {
		l.used.Set(now, l.remaining)
	}
	for _, f := range flows {
		fb.reschedule(f, now)
	}
}

// oneRound finishes a general recompute in closed form when
// progressive filling would stop after its first round because that
// round freezes every flow of the component — nearly every network
// recompute: a fetch or transfer joins or leaves links whose flows all
// sit at one bottleneck or one cap. It runs on the swept and advanced
// component and returns false when some flow would stay active; the
// filling loop then runs, resetting every rate and link scratch value
// it set. The result matches the loop bit for bit (docs/MODEL.md §9):
//   - round 1's delta is the loop's: with every rate at zero, the loop's
//     link count is len(l.flows) (every flow on a component link is in
//     the component) and a flow's cap room is its cap;
//   - the freeze test is the loop's own, on the same remaining capacity;
//   - every rate is 0+delta = delta, so a link's meter sum is delta
//     added once per flow, which no summation order can change;
//   - reschedule acts only on flows that are not settled, and they are
//     rescheduled in the loop's index order.
func (fb *Fabric) oneRound(links []*Link, flows []*Flow, now float64) bool {
	delta := math.Inf(1)
	for _, l := range links {
		if n := len(l.flows); n > 0 {
			if share := l.Capacity / float64(n); share < delta {
				delta = share
			}
		}
	}
	for _, f := range flows {
		if f.rateCap > 0 && f.rateCap < delta {
			delta = f.rateCap
		}
	}
	if math.IsInf(delta, 1) {
		return false
	}
	for _, l := range links {
		l.remaining = l.Capacity - delta*float64(len(l.flows))
	}
	for _, f := range flows {
		f.rate = delta
		if !f.frozen() {
			return false
		}
	}
	for _, l := range links {
		sum := 0.0
		for range l.flows {
			sum += delta
		}
		l.used.Set(now, sum)
	}
	// Usually at most one flow moves: the one that started, or none
	// when a flow left.
	moved := fb.pool.activeFlows[:0]
	for _, f := range flows {
		if !f.settled() {
			moved = append(moved, f)
		}
	}
	fb.pool.activeFlows = moved
	if len(moved) > 1 {
		slices.SortFunc(moved, func(a, b *Flow) int { return cmp.Compare(a.index, b.index) })
	}
	for _, f := range moved {
		fb.reschedule(f, now)
	}
	return true
}
