package sim

import (
	"fmt"
	"math"
)

// Shard is one event queue of a sharded Engine plus its scheduling
// API. Model components hold the shard that owns their state (a rack's
// nodes hold the rack shard; cross-cutting actors hold the system
// shard) and schedule through it, which is what "declaring shard
// affinity" means: every At/After/Tick/Reschedule/Cancel call names
// the shard whose state the callback touches.
//
// In serial mode (the default) affinity is purely declarative — the
// engine fires events in global (time, seq) order whatever the shard
// layout — but it is what makes the parallel-window mode (and the
// cross-shard-event lint rule) possible: a callback scheduled on a
// shard may only touch that shard's state, and talks to other shards
// through Send.
type Shard struct {
	eng  *Engine
	id   ShardID
	name string

	pq   eventQueue
	free []*Event

	// pos is this shard's position in the engine's index heap, -1 when
	// idle (empty queue). minAt/minSeq cache the queue head's key; the
	// index heap compares cached keys only.
	pos    int
	minAt  float64
	minSeq uint64

	// Parallel-window state (see parallel.go). All of it is owned by
	// the single worker goroutine executing this shard's window, or by
	// the coordinator between windows.
	inWindow   bool
	now        float64 // shard-local clock inside a window
	windowEnd  float64
	windowBase uint64 // engine seq at window start
	windowK    uint64 // number of shards in the window
	windowIdx  uint64 // this shard's slot in the window's seq interleave
	localCount uint64 // seqs consumed by this shard within the window
	fired      uint64 // events fired by this shard within the window
	outbox     []pendingSend
	obCur      int // barrier-merge cursor into the sorted outbox
	stopReq    bool
	panicked   any
}

// ID returns the shard's identifier (0 is the system shard).
func (s *Shard) ID() ShardID { return s.id }

// Name returns the label the shard was created with.
func (s *Shard) Name() string { return s.name }

// Engine returns the owning engine.
func (s *Shard) Engine() *Engine { return s.eng }

// Now returns the current simulation time as seen by this shard:
// inside a parallel window, the shard-local clock; otherwise the
// engine clock.
func (s *Shard) Now() float64 {
	if s.inWindow {
		return s.now
	}
	return s.eng.now
}

// nextSeq consumes one scheduling sequence number. Inside a parallel
// window each shard draws from its own interleaved lane (base +
// local*K + idx) so assignment is race-free and deterministic; the
// coordinator advances the engine counter past every lane at the
// barrier.
func (s *Shard) nextSeq() uint64 {
	if s.inWindow {
		seq := s.windowBase + s.localCount*s.windowK + s.windowIdx
		s.localCount++
		return seq
	}
	seq := s.eng.seq
	s.eng.seq++
	return seq
}

// take pops a recycled event from this shard's free list or allocates
// a fresh one. Recycled events are reused only by their owning shard.
func (s *Shard) take(t float64, seq uint64, fn func()) *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.canceled = t, seq, fn, false
		return ev
	}
	return &Event{at: t, seq: seq, fn: fn, shard: s}
}

// At schedules fn on this shard at absolute time t. Scheduling in the
// past panics, since it indicates a broken model rather than a
// recoverable condition. During a parallel window only the shard's own
// callbacks may call At on it; cross-shard scheduling must go through
// Send.
func (s *Shard) At(t float64, fn func()) *Event {
	if p := s.eng.par; p != nil && p.active && !s.inWindow && p.solo != s {
		panic(fmt.Sprintf("sim: At on shard %q outside its window during parallel execution; use Send", s.name))
	}
	return s.at(t, fn)
}

// at is At without the parallel-mode affinity guard; Send's serial
// fallback delivers through it (a Send is the sanctioned cross-shard
// path, so the guard must not reject the destination shard).
func (s *Shard) at(t float64, fn func()) *Event {
	e := s.eng
	if now := s.Now(); t < now {
		panic(fmt.Sprintf("sim: scheduling event at %.9f before now %.9f", t, now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	ev := s.take(t, s.nextSeq(), fn)
	s.pq.push(ev)
	if !s.inWindow {
		e.syncShard(s)
	}
	return ev
}

// After schedules fn on this shard d seconds from now. Negative d
// panics.
func (s *Shard) After(d float64, fn func()) *Event {
	return s.At(s.Now()+d, fn)
}

// Reschedule moves a still-queued event of this shard to absolute time
// t, keeping its callback and its owning shard (events never migrate
// shards; see the Event ownership contract). Semantics match
// Engine.Reschedule.
func (s *Shard) Reschedule(ev *Event, t float64) *Event {
	if ev == nil || ev.canceled || ev.index < 0 {
		panic("sim: Reschedule of a fired or canceled event")
	}
	if ev.shard != s {
		panic(fmt.Sprintf("sim: Reschedule on shard %q of an event owned by shard %q", s.name, ev.shard.name))
	}
	if now := s.Now(); t < now {
		panic(fmt.Sprintf("sim: rescheduling event at %.9f before now %.9f", t, now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: rescheduling event at non-finite time %v", t))
	}
	ev.at = t
	ev.seq = s.nextSeq()
	s.pq.fix(ev.index)
	if !s.inWindow {
		s.eng.syncShard(s)
	}
	return ev
}

// Cancel removes ev from this shard's queue. Canceling an
// already-fired or already-canceled event is a no-op; canceling an
// event owned by a different shard panics (cross-shard cancellation
// must be routed through Send to the owning shard).
func (s *Shard) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	if ev.shard != s {
		panic(fmt.Sprintf("sim: Cancel on shard %q of an event owned by shard %q", s.name, ev.shard.name))
	}
	ev.canceled = true
	if ev.index >= 0 {
		s.pq.remove(ev.index)
		if !s.inWindow {
			s.eng.syncShard(s)
		}
	}
}

// Tick schedules fn on this shard every interval seconds, starting one
// interval from now. fn returning false stops the ticker.
func (s *Shard) Tick(interval float64, fn func() bool) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick interval %v", interval))
	}
	t := &Ticker{shard: s, interval: interval, fn: fn}
	t.schedule()
	return t
}

// Send schedules fn on shard dst, delay seconds from this shard's
// current time. It is the sanctioned cross-shard communication
// primitive: in serial mode it is exactly dst.At(now+delay, fn); in
// parallel-window mode the send is buffered and merged at the window
// barrier in deterministic (time, source shard, send order) order, and
// the returned event is nil. delay must be at least the engine's
// lookahead when parallel windows are enabled, so a send can never
// land inside the window that issued it.
func (s *Shard) Send(dst *Shard, delay float64, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		panic(fmt.Sprintf("sim: Send with invalid delay %v", delay))
	}
	// In parallel mode the delay floor is enforced unconditionally —
	// not just inside windows — so a lookahead violation fails
	// deterministically on its first execution instead of depending on
	// the window occupancy that happened to surround it (the adaptive
	// solo drain otherwise runs sends with serial semantics and would
	// mask short delays). mrlint's cross-shard-event rule flags the
	// constant-delay cases statically.
	if p := s.eng.par; p != nil && delay < p.lookahead {
		panic(fmt.Sprintf(
			"sim: Send from shard %q to %q with delay %.9f below the lookahead %.9f; cross-shard delays must be >= the lookahead",
			s.name, dst.name, delay, p.lookahead))
	}
	if s.inWindow {
		at := s.now + delay
		if at < s.windowEnd {
			panic(fmt.Sprintf(
				"sim: Send from shard %q to %q lands at %.9f inside the window ending %.9f; cross-shard delays must be >= the lookahead",
				s.name, dst.name, at, s.windowEnd))
		}
		s.outbox = append(s.outbox, pendingSend{dst: dst, at: at, order: uint64(len(s.outbox)), fn: fn})
		return nil
	}
	return dst.at(s.Now()+delay, fn)
}

// Pending returns the number of queued (not yet fired) events on this
// shard.
func (s *Shard) Pending() int { return len(s.pq) }
