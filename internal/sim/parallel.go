package sim

// Parallel window execution: an opt-in mode (off by default; see
// EnableParallelWindows) in which the independent shards of one
// conservative time-window execute concurrently on a bounded worker
// pool.
//
// The mode trades the serial engine's exact global (time, seq) firing
// order for within-window parallelism while staying fully
// deterministic:
//
//   - A window is [T, T+L): T the earliest pending event anywhere, L
//     the configured lookahead. Every shard whose earliest event falls
//     inside the window drains its own queue, single-threaded, in
//     local (time, seq) order — the MODEL.md §12 invariant holds
//     per shard, which is why the no-goroutine-in-sim rule carries
//     over unchanged for model code.
//   - A shard's callbacks may only touch that shard's state. The only
//     cross-shard channel is Send, whose delay must be ≥ L, so no send
//     can affect the window that issued it — that is what makes the
//     window conservative.
//   - Sends are buffered per shard and merged at the window barrier in
//     (time, source shard ID, send order) order; sequence numbers
//     within a window are drawn from per-shard interleaved lanes
//     (base + local·K + idx). Both rules are functions of the schedule
//     alone, never of goroutine timing, so same-seed parallel runs are
//     bit-identical to each other at any worker count (workers=1 runs
//     the identical windowed algorithm inline).
//   - Adaptive lookahead: when the window would contain a single shard
//     (no other shard has an event before T+L), the engine widens the
//     window to the exact safe bound — the next competitor's earliest
//     key — and drains the shard with plain serial semantics. The
//     widening decision depends only on the schedule, so it too is
//     identical at every worker count. Widening a window that holds
//     two or more shards is never legal: model code only promises
//     Send delays ≥ the configured L.
//
// Relative to serial mode, only the interleave of *exactly tied*
// (same-timestamp) events on different shards, and of tied cross-shard
// sends, can differ — for shard-isolated models the per-shard firing
// order (and thus all shard state) is identical. The figure pipeline
// keeps using serial mode, which remains the bit-exact reference.
//
// The pool internals below are the one sanctioned use of goroutines
// inside a simulated package; each primitive carries an audited
// no-goroutine-in-sim exemption. Model code gets no such exemption:
// the invariant it must honor is unchanged.

import (
	"fmt"
	"math"
	"sort"
	//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals (MODEL.md "Sharded event engine"): sync is confined to the window barrier, never visible to model code
	"sync/atomic"
)

// pendingSend is one buffered cross-shard Send awaiting the window
// barrier.
type pendingSend struct {
	dst   *Shard
	at    float64
	order uint64 // position in the source shard's outbox
	fn    func()
}

type parallelConfig struct {
	workers   int
	lookahead float64
	// active is true while a window (or a solo drain) is executing;
	// scheduling calls use it to reject cross-shard At/Reschedule that
	// the serial engine would have tolerated.
	active bool
	// solo is the shard being drained by the adaptive single-shard fast
	// path; its own callbacks schedule with serial semantics while every
	// other shard stays locked behind the Send-only contract.
	solo *Shard
	// ready/outs are coordinator scratch, reused across windows.
	ready []*Shard
	outs  []*Shard
	// pool is the persistent worker pool, created lazily by the first
	// multi-shard window of a run and parked between windows; RunUntil
	// tears it down on exit.
	pool *windowPool
}

// EnableParallelWindows switches the engine to parallel-window
// execution: within each conservative time-window of length lookahead,
// shards with pending events run concurrently on a pool of at most
// workers goroutines (workers <= 1 runs the same windowed algorithm
// inline, which is bit-identical to any other worker count).
//
// Requirements: lookahead must be positive, and model code must be
// shard-isolated — a callback scheduled on a shard touches only that
// shard's state and reaches other shards exclusively through Send with
// delay >= lookahead. The engine enforces the scheduling-API part
// (cross-shard At/Reschedule and short sends panic); the
// state-isolation part is the model's contract, policed statically by
// mrlint's cross-shard-event rule and dynamically by running the test
// suite under -race.
func (e *Engine) EnableParallelWindows(workers int, lookahead float64) {
	if lookahead <= 0 || math.IsNaN(lookahead) || math.IsInf(lookahead, 0) {
		panic(fmt.Sprintf("sim: parallel windows need a positive finite lookahead, got %v", lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	e.par = &parallelConfig{workers: workers, lookahead: lookahead}
}

// runParallel is RunUntil in parallel-window mode.
func (e *Engine) runParallel(t float64) {
	e.stopped = false
	p := e.par
	defer func() {
		if p.pool != nil {
			p.pool.stop()
			p.pool = nil
		}
	}()
	for len(e.order) > 0 && !e.stopped {
		s0 := e.order[0]
		T := s0.minAt
		if T > t {
			break
		}
		end := T + p.lookahead

		// Adaptive lookahead: if no other shard has an event before the
		// window end, the window would hold s0 alone. Drain it with
		// serial semantics up to the next competitor's key instead —
		// that both skips the window machinery and widens the effective
		// lookahead to the exact safe bound. The condition is a function
		// of the schedule only, so every worker count takes the same
		// path.
		if at2, seq2 := e.secondBest(); at2 >= end {
			p.active = true
			p.solo = s0
			e.drainSolo(s0, t, at2, seq2)
			p.solo = nil
			p.active = false
			continue
		}

		// Ready set: every shard whose earliest event is inside the
		// window, in shard-ID order (deterministic, independent of
		// index-heap internals).
		ready := p.ready[:0]
		for _, s := range e.shards {
			if s.pos >= 0 && s.minAt < end {
				ready = append(ready, s)
			}
		}
		p.ready = ready

		K := uint64(len(ready))
		base := e.seq
		e.now = T
		for i, s := range ready {
			s.inWindow = true
			s.now = T
			s.windowEnd = end
			s.windowBase = base
			s.windowK = K
			s.windowIdx = uint64(i)
			s.localCount = 0
			s.fired = 0
			s.stopReq = false
			s.panicked = nil
		}

		p.active = true
		if p.workers <= 1 || len(ready) == 1 {
			for _, s := range ready {
				s.drainWindow(t)
			}
		} else {
			if p.pool == nil {
				p.pool = newWindowPool(p.workers)
			}
			p.pool.run(ready, t)
		}
		p.active = false

		// Barrier: fold per-shard results back into the engine,
		// deterministically (ready is in shard-ID order).
		var maxLocal uint64
		maxNow := T
		for _, s := range ready {
			s.inWindow = false
			if s.localCount > maxLocal {
				maxLocal = s.localCount
			}
			if s.now > maxNow {
				maxNow = s.now
			}
			e.processed += s.fired
			if s.stopReq {
				e.stopped = true
			}
		}
		e.seq = base + maxLocal*K
		e.now = maxNow
		if e.MaxEvents > 0 && e.processed > e.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d (runaway model?)", e.MaxEvents))
		}
		for _, s := range ready {
			if s.panicked != nil {
				panic(s.panicked)
			}
		}

		// Merge buffered cross-shard sends in (time, source shard, send
		// order) order, assigning post-window sequence numbers. Each
		// outbox left its window already sorted by (time, order) — see
		// drainWindow — so a k-way merge over the non-empty outboxes in
		// ready order reproduces the global stable sort exactly, in one
		// linear pass.
		outs := p.outs[:0]
		for _, s := range ready {
			if len(s.outbox) > 0 {
				s.obCur = 0
				outs = append(outs, s)
			}
		}
		p.outs = outs
		for len(outs) > 0 {
			best := 0
			bestAt := outs[0].outbox[outs[0].obCur].at
			for i := 1; i < len(outs); i++ {
				if at := outs[i].outbox[outs[i].obCur].at; at < bestAt {
					best, bestAt = i, at
				}
			}
			src := outs[best]
			ps := &src.outbox[src.obCur]
			dst := ps.dst
			ev := dst.take(ps.at, e.seq, ps.fn)
			e.seq++
			dst.pq.push(ev)
			ps.dst, ps.fn = nil, nil
			src.obCur++
			if src.obCur == len(src.outbox) {
				src.outbox = src.outbox[:0]
				outs = append(outs[:best], outs[best+1:]...)
			}
		}

		// Re-sync every shard whose queue the window touched.
		for _, s := range e.shards {
			e.syncShard(s)
		}
	}
	if !math.IsInf(t, 1) && t > e.now && !e.stopped {
		e.now = t
	}
}

// drainSolo is the serial engine's drain loop applied to the one shard
// holding every event of the widened window [T, boundAt]: the exact
// RunUntil inner loop, with the drain boundary seeded from the global
// second-best key (scheduling calls lower it, exactly as in serial
// mode). Because p.active is set without s.inWindow, the draining
// shard's own callbacks get full serial scheduling semantics while any
// other shard still rejects cross-shard At.
func (e *Engine) drainSolo(s *Shard, t, boundAt float64, boundSeq uint64) {
	e.boundAt, e.boundSeq = boundAt, boundSeq
	e.drain = s
	for len(s.pq) > 0 {
		h := &s.pq[0]
		if h.at > t {
			break
		}
		if h.at > e.boundAt || (h.at == e.boundAt && h.seq > e.boundSeq) {
			break
		}
		ev := s.pq.pop()
		e.now = ev.at
		e.processed++
		if e.MaxEvents > 0 && e.processed > e.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d (runaway model?)", e.MaxEvents))
		}
		fn := ev.fn
		ev.fn = nil // release the closure before running it
		fn()
		if len(s.free) < maxFreeEvents {
			s.free = append(s.free, ev)
		}
		if e.stopped {
			break
		}
	}
	e.drain = nil
	e.syncShard(s)
}

// windowPool is the persistent worker pool of one parallel RunUntil:
// workers goroutines parked on a wake channel across windows, pulling
// ready shards off a shared atomic cursor. Creating goroutines,
// WaitGroups, and channels per window costs more than many windows'
// worth of useful work (a day-long serving run crosses tens of
// thousands of windows), so the pool is built once per run and only
// woken at each window.
//
// Memory model: the coordinator writes ready/t before the wake sends,
// and each worker's shard mutations happen before its done send — both
// channel operations are synchronization edges, so neither side ever
// observes a stale view. Workers share nothing but the cursor.
type windowPool struct {
	//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: wake/done are the window barrier, invisible to model code
	wake chan struct{}
	//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: wake/done are the window barrier, invisible to model code
	done chan struct{}

	ready []*Shard
	t     float64
	//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: work-stealing cursor over the ready set, reset at each barrier
	next atomic.Int64
}

func newWindowPool(workers int) *windowPool {
	wp := &windowPool{
		//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: wake/done are the window barrier, invisible to model code
		wake: make(chan struct{}, workers),
		//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: wake/done are the window barrier, invisible to model code
		done: make(chan struct{}, workers),
	}
	for i := 0; i < workers; i++ {
		//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: persistent bounded pool, parked between windows, joined at every barrier before shared state is read
		go wp.worker()
	}
	return wp
}

// worker parks on the wake channel between windows; each wake token is
// one window's worth of work, ended by a done token once the cursor
// runs off the ready set.
func (wp *windowPool) worker() {
	//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: park/wake loop, one iteration per window
	for range wp.wake {
		for {
			//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: work-stealing cursor over the ready set
			i := wp.next.Add(1) - 1
			if int(i) >= len(wp.ready) {
				break
			}
			wp.ready[i].drainWindow(wp.t)
		}
		//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: window barrier completion token
		wp.done <- struct{}{}
	}
}

// run executes one window on the parked pool: publish the ready set,
// wake min(workers, len(ready)) workers, await the same number of
// completion tokens.
func (wp *windowPool) run(ready []*Shard, t float64) {
	wp.ready, wp.t = ready, t
	//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: work-stealing cursor over the ready set
	wp.next.Store(0)
	k := cap(wp.wake)
	if k > len(ready) {
		k = len(ready)
	}
	for i := 0; i < k; i++ {
		//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: window wake token
		wp.wake <- struct{}{}
	}
	for i := 0; i < k; i++ {
		//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: window barrier completion token
		<-wp.done
	}
	wp.ready = nil
}

// stop retires the pool's goroutines; called once per RunUntil on the
// way out, after the last barrier (so no worker holds work).
func (wp *windowPool) stop() {
	//mrlint:ignore no-goroutine-in-sim audited parallel-window pool internals: pool teardown on RunUntil exit
	close(wp.wake)
}

// drainWindow fires this shard's events with time inside [now,
// windowEnd) and <= t, in local (time, seq) order. It runs on a pool
// worker and touches only shard-local state; a callback panic is
// captured and re-raised deterministically at the barrier. On the way
// out it sorts its outbox by (time, send order) — per-shard work done
// on the worker, which is what lets the barrier replace a global
// stable sort with a linear k-way merge.
func (s *Shard) drainWindow(t float64) {
	defer func() {
		if r := recover(); r != nil {
			s.panicked = r
		}
	}()
	for len(s.pq) > 0 {
		if h := &s.pq[0]; h.at >= s.windowEnd || h.at > t {
			break
		}
		ev := s.pq.pop()
		s.now = ev.at
		s.fired++
		fn := ev.fn
		ev.fn = nil
		fn()
		if len(s.free) < maxFreeEvents {
			s.free = append(s.free, ev)
		}
		if s.stopReq {
			break
		}
	}
	if len(s.outbox) > 1 {
		ob := s.outbox
		sort.Slice(ob, func(i, j int) bool {
			if ob[i].at != ob[j].at {
				return ob[i].at < ob[j].at
			}
			return ob[i].order < ob[j].order
		})
	}
}

// StopShard requests an engine stop from inside a parallel window
// (Engine.Stop would race). The stop takes effect at the window
// barrier. Outside a window it is equivalent to Engine.Stop.
func (s *Shard) StopShard() {
	if s.inWindow {
		s.stopReq = true
		return
	}
	s.eng.Stop()
}
