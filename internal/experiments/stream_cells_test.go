package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/workload"
)

// churnSpec is the crash-churn fault schedule of the faulted golden
// legs: rolling crash+restart waves across several racks (different
// nodes, overlapping windows), plus probabilistic shuffle-fetch and
// task attempt failures so the retry machinery runs too. Every crash
// restarts, so the stream still drains completely.
func churnSpec() *faults.Spec {
	s := &faults.Spec{
		FetchFailRate:   0.02,
		TaskAttemptFail: &faults.TaskAttemptFail{Rate: 0.02},
	}
	// smallStreamSpec topology: 24 racks × 8 nodes, node IDs contiguous
	// per rack. Crash one node in every third rack, staggered through
	// the first half of the horizon.
	for r := 0; r < 24; r += 3 {
		s.NodeCrashes = append(s.NodeCrashes, faults.NodeCrash{
			At:           100 + float64(r)*35,
			Node:         r*8 + (r/3)%8,
			RestartAfter: 300,
		})
	}
	return s
}

// TestStreamParallelRejectsCrossCellState pins the guard rails on the
// rack-cell path: Validate refuses a class without positive weight and
// a fault aimed outside the cluster, and RunStream panics with
// Validate's error rather than running such a spec.
func TestStreamParallelRejectsCrossCellState(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*StreamSpec)
		want   string
	}{
		{"zero weight", func(s *StreamSpec) {
			s.Classes = []StreamClass{{Weight: 0, Bench: workload.Terasort(2, 0, 0)}}
		}, "positive weight"},
		{"fault node out of range", func(s *StreamSpec) {
			s.Faults = &faults.Spec{NodeCrashes: []faults.NodeCrash{{At: 40, Node: s.Racks * s.NodesPerRack, RestartAfter: 120}}}
		}, "out of range"},
	} {
		spec := smallStreamSpec(11)
		spec.Parallel = 2
		c.mutate(&spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", c.name, err, c.want)
		}
	}

	// Both paths accept the warm-start store and an external sink.
	for _, parallel := range []int{0, 2} {
		spec := smallStreamSpec(11)
		spec.Parallel = parallel
		spec.Tuned, spec.WarmStart, spec.Sink = true, true, trace.Discard
		if err := spec.Validate(); err != nil {
			t.Errorf("Parallel=%d spec with WarmStart and Sink: Validate() = %v", parallel, err)
		}
	}

	// Fault nodes are checked on the classic path too: it would panic
	// arming the injector otherwise.
	classic := smallStreamSpec(11)
	classic.Faults = &faults.Spec{NodeCrashes: []faults.NodeCrash{{At: 40, Node: 20000}}}
	if err := classic.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("classic spec with fault node 20000: Validate() = %v, want an out-of-range error", err)
	}
	env := Env{FaultSpec: classic.Faults}
	if err := env.ValidateFaults(); err == nil || !strings.Contains(err.Error(), "cluster has 18") {
		t.Errorf("Env.ValidateFaults with fault node 20000 = %v, want an out-of-range error against the 18-node testbed", err)
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of range") {
			t.Fatalf("RunStream with Parallel and an out-of-range fault node: recovered %v, want Validate's panic", r)
		}
	}()
	spec := smallStreamSpec(11)
	spec.Parallel = 2
	spec.Faults = &faults.Spec{NodeCrashes: []faults.NodeCrash{{At: 40, Node: spec.Racks * spec.NodesPerRack}}}
	RunStream(spec)
}
