package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// rtSnap is one reading of the process and Go runtime counters; the
// difference of two readings covers the work between them.
type rtSnap struct {
	wall       time.Time
	procCPU    float64 // user+system CPU seconds of the process (getrusage)
	allocBytes float64 // cumulative heap allocation
	gcCycles   float64
	gcCPU      float64 // CPU seconds spent in GC, assists included
	usedCPU    float64 // runtime's total minus idle CPU seconds
	pauseNS    uint64  // cumulative stop-the-world GC pause
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRT() rtSnap {
	metrics.Read(rtSamples)
	val := func(i int) float64 {
		v := rtSamples[i].Value
		if v.Kind() == metrics.KindUint64 {
			return float64(v.Uint64())
		}
		return v.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := rtSnap{
		wall:       time.Now(),
		allocBytes: val(0),
		gcCycles:   val(1),
		gcCPU:      val(2),
		usedCPU:    val(3) - val(4),
		pauseNS:    ms.PauseTotalNs,
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return s
}

// heapWatch samples the size of heap objects (live and not yet swept)
// from runtime/metrics every heapPollEvery.
type heapWatch struct {
	mu      sync.Mutex
	samples []float64
	stop    chan struct{}
	wg      sync.WaitGroup
}

const heapPollEvery = 2 * time.Millisecond

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapPollEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.poll()
			}
		}
	}()
	return h
}

func (h *heapWatch) poll() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	h.mu.Lock()
	h.samples = append(h.samples, float64(s[0].Value.Uint64()))
	h.mu.Unlock()
}

// take returns the samples since the previous take.
func (h *heapWatch) take() []float64 {
	h.poll()
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.samples
	h.samples = nil
	return out
}

// close stops the sampler and waits for it to exit.
func (h *heapWatch) close() {
	close(h.stop)
	h.wg.Wait()
}
