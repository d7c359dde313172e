package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// TestEventQueueMatchesContainerHeap drives the typed 4-ary event queue
// and a container/heap reference (the frozen legacy heap) through the
// same random sequence of pushes, pops, reschedules and cancels. Times
// come from a small set so (at, seq) ties on at are common. After every
// operation the popped events must agree and every queued Event.index
// must name its own slot; every event that left the queue must carry
// index -1.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref legacyHeap
		type pair struct {
			ev  *Event
			ref *legacyEvent
		}
		var live []pair
		var gone []*Event
		var seq uint64
		key := func() (float64, uint64) {
			seq++
			return float64(rng.Intn(50)), seq
		}
		for op := 0; op < 20_000; op++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(live) == 0: // push
				at, s := key()
				ev := &Event{at: at, seq: s}
				le := &legacyEvent{at: at, seq: s}
				q.push(ev)
				heap.Push(&ref, le)
				live = append(live, pair{ev, le})
			case r < 7: // pop
				got := q.pop()
				want := heap.Pop(&ref).(*legacyEvent)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d op %d: pop = (%v, %d), container/heap pops (%v, %d)",
						seed, op, got.at, got.seq, want.at, want.seq)
				}
				for i, p := range live {
					if p.ev == got {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
				gone = append(gone, got)
			case r < 9: // reschedule
				p := live[rng.Intn(len(live))]
				p.ev.at, p.ev.seq = key()
				p.ref.at, p.ref.seq = p.ev.at, p.ev.seq
				q.fix(p.ev.index)
				heap.Fix(&ref, p.ref.index)
			default: // cancel
				i := rng.Intn(len(live))
				p := live[i]
				q.remove(p.ev.index)
				heap.Remove(&ref, p.ref.index)
				live = append(live[:i], live[i+1:]...)
				gone = append(gone, p.ev)
			}
			if len(q) != len(ref) || len(q) != len(live) {
				t.Fatalf("seed %d op %d: queue holds %d, reference %d, live %d", seed, op, len(q), len(ref), len(live))
			}
			for i := range q {
				e := &q[i]
				if e.ev.index != i {
					t.Fatalf("seed %d op %d: slot %d holds an event with index %d", seed, op, i, e.ev.index)
				}
				if e.at != e.ev.at || e.seq != e.ev.seq {
					t.Fatalf("seed %d op %d: slot %d key (%v, %d) is stale against its event (%v, %d)",
						seed, op, i, e.at, e.seq, e.ev.at, e.ev.seq)
				}
				if i > 0 && e.less(&q[(i-1)/4]) {
					t.Fatalf("seed %d op %d: slot %d sorts before its parent", seed, op, i)
				}
			}
			for _, ev := range gone {
				if ev.index != -1 {
					t.Fatalf("seed %d op %d: dequeued event keeps index %d", seed, op, ev.index)
				}
			}
			if len(gone) > 64 {
				gone = gone[:0]
			}
		}
		for len(q) > 0 {
			got, want := q.pop(), heap.Pop(&ref).(*legacyEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d drain: pop = (%v, %d), container/heap pops (%v, %d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
		}
	}
}

// TestShardQueueOpsMatchContainerHeap is the same check one level up:
// events scheduled, rescheduled and canceled through the Shard API
// must fire in the order the container/heap reference pops them.
func TestShardQueueOpsMatchContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng := NewEngine()
	sh := eng.SystemShard()
	var ref legacyHeap
	type pair struct {
		ev  *Event
		ref *legacyEvent
	}
	var live []pair
	var fired []uint64
	for op := 0; op < 5_000; op++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(live) == 0:
			id := uint64(op)
			ev := sh.At(float64(rng.Intn(100)), func() { fired = append(fired, id) })
			le := &legacyEvent{at: ev.at, seq: ev.seq, fn: func() { fired = append(fired, id) }}
			heap.Push(&ref, le)
			live = append(live, pair{ev, le})
		case r < 9:
			p := live[rng.Intn(len(live))]
			sh.Reschedule(p.ev, float64(rng.Intn(100)))
			p.ref.at, p.ref.seq = p.ev.at, p.ev.seq
			heap.Fix(&ref, p.ref.index)
		default:
			i := rng.Intn(len(live))
			sh.Cancel(live[i].ev)
			heap.Remove(&ref, live[i].ref.index)
			if live[i].ev.index != -1 {
				t.Fatalf("op %d: canceled event keeps index %d", op, live[i].ev.index)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
	eng.Run()
	got := fired
	fired = nil
	for len(ref) > 0 {
		heap.Pop(&ref).(*legacyEvent).fn()
	}
	if len(got) != len(fired) {
		t.Fatalf("shard fired %d events, reference %d", len(got), len(fired))
	}
	for i := range got {
		if got[i] != fired[i] {
			t.Fatalf("firing order diverges at event %d: shard %d, reference %d", i, got[i], fired[i])
		}
	}
}
