package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEngineSchedule measures the schedule→fire round trip for a
// self-perpetuating event chain — the allocation pattern of every flow
// completion in the fabric.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	left := b.N
	var step func()
	step = func() {
		left--
		if left > 0 {
			eng.After(1, step)
		}
	}
	eng.After(1, step)
	eng.Run()
}

// BenchmarkEngineScheduleFan measures a fan of events per step: each
// firing schedules several short-lived events and cancels one, the
// cancel/reschedule pattern of a fabric recomputation.
func BenchmarkEngineScheduleFan(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	left := b.N
	var step func()
	step = func() {
		left--
		victim := eng.After(5, func() {})
		eng.After(0.5, func() {})
		eng.After(0.25, func() {})
		eng.Cancel(victim)
		if left > 0 {
			eng.After(1, step)
		}
	}
	eng.After(1, step)
	eng.Run()
}

// BenchmarkEventQueue measures the queue kernel at a steady depth: each
// firing re-arms its own slot (a push) and reschedules another pending
// event, so an op is one pop, one push and one sift-in-place, the
// schedule/reschedule mix of the fabric and the RM.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			eng := NewEngine()
			rng := rand.New(rand.NewSource(1))
			evs := make([]*Event, depth)
			fns := make([]func(), depth)
			left := b.N
			for k := range fns {
				fns[k] = func() {
					left--
					if left <= 0 {
						eng.Stop()
						return
					}
					now := eng.Now()
					evs[k] = eng.At(now+1+rng.Float64()*100, fns[k])
					if j := rng.Intn(depth); j != k {
						eng.Reschedule(evs[j], now+1+rng.Float64()*100)
					}
				}
				evs[k] = eng.At(rng.Float64()*100, fns[k])
			}
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run()
		})
	}
}

// BenchmarkStreamInto measures re-seeding a pooled per-job stream, the
// two-per-submission cost of the map/reduce skew streams.
func BenchmarkStreamInto(b *testing.B) {
	s := NewSource(7)
	r := s.Stream("warm")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r = s.StreamInto(r, "map-skew")
	}
	_ = r.Int63()
}
