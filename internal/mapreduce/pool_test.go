package mapreduce

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mrconf"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPooledAttemptReuseZeroAlloc pins the steady-state cost of the
// attempt pool: once warm, a get/recycle round trip reuses the Task
// object and its tracking slices without touching the heap.
func TestPooledAttemptReuseZeroAlloc(t *testing.T) {
	p := NewPool()
	// Warm the free list so the measured runs only pop and push.
	tk := p.getTask()
	p.recycleTask(tk)
	if avg := testing.AllocsPerRun(100, func() {
		tk := p.getTask()
		p.recycleTask(tk)
	}); avg != 0 {
		t.Fatalf("pooled attempt round trip allocates %v per run; want 0", avg)
	}
}

// TestSnapshotCacheHitZeroAlloc pins the per-attempt config cost on
// the serving path: installing the job's repaired base configuration
// reuses the snapshot compiled at submission instead of recompiling.
func TestSnapshotCacheHitZeroAlloc(t *testing.T) {
	cfg := mrconf.Default()
	j := &Job{baseRepaired: cfg, baseRepairedSnap: cfg.Snapshot()}
	tk := &Task{Job: j}
	tk.setConfig(cfg)
	if tk.snap != j.baseRepairedSnap {
		t.Fatal("setConfig on the repaired base did not reuse the submission snapshot")
	}
	if avg := testing.AllocsPerRun(100, func() {
		tk.setConfig(cfg)
	}); avg != 0 {
		t.Fatalf("snapshot cache hit allocates %v per run; want 0", avg)
	}
}

// TestPooledSubmitTraceIdentical asserts that the serving-path
// optimizations change cost, not behavior: nine staggered, overlapping
// jobs run once with an attempt pool, a precompiled base config and
// input release, and once with all three off, and every trace event
// and job duration must match.
func TestPooledSubmitTraceIdentical(t *testing.T) {
	run := func(pooled bool) ([]trace.Event, []float64) {
		r := newRig()
		base := mrconf.Default()
		var pool *Pool
		var pre *PrecompiledConfig
		if pooled {
			pool = NewPool()
			pre = Precompile(base)
		}
		benches := []workload.Benchmark{
			workload.Terasort(1, 0, 0), workload.Terasort(2, 0, 0), workload.BBP(25000, 8),
		}
		var rec trace.Recorder
		durs := make([]float64, 9)
		for i := range durs {
			spec := Spec{
				Name:                 fmt.Sprintf("job-%d", i),
				Benchmark:            benches[i%len(benches)],
				BaseConfig:           base,
				Trace:                &rec,
				Pool:                 pool,
				Precompiled:          pre,
				ReleaseInputOnFinish: pooled,
			}
			r.eng.At(float64(i)*10, func() {
				Submit(r.rm, r.fs, spec, func(res Result) { durs[i] = res.Duration })
			})
		}
		r.eng.Run()
		for i, d := range durs {
			if d <= 0 {
				t.Fatalf("pooled=%v: job %d never completed", pooled, i)
			}
		}
		return rec.Events(), durs
	}

	pooledEvents, pooledDurs := run(true)
	plainEvents, plainDurs := run(false)
	if !reflect.DeepEqual(pooledEvents, plainEvents) {
		t.Fatalf("pooled trace differs: %d vs %d events", len(pooledEvents), len(plainEvents))
	}
	if !reflect.DeepEqual(pooledDurs, plainDurs) {
		t.Fatalf("pooled durations %v; unpooled %v", pooledDurs, plainDurs)
	}
	t.Logf("%d identical events", len(pooledEvents))
}
