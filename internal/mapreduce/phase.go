package mapreduce

import "repro/internal/cluster"

// phaseStep names the continuation a phase barrier runs.
type phaseStep uint8

const (
	stepMapMerge     phaseStep = iota + 1 // mapMerge(combinedMB, overlapMB, numSpills)
	stepMapFinish                         // mapFinish(combinedMB, numSpills, passes)
	stepFetched                           // fetched(run, mb = the chunk)
	stepReduceOutput                      // reduceOutput(run, mb = the total input)
)

// phaseBarrier joins the flows and HDFS ops an attempt phase runs side
// by side: each completion arrives once, and the last one runs the
// phase's continuation with the arguments stored when the phase opened.
// It lives in the Task, and its callback is bound once per Task object,
// so opening a phase allocates nothing.
type phaseBarrier struct {
	pending int // completions still to arrive
	next    phaseStep

	// next's arguments.
	combinedMB, overlapMB float64
	numSpills, passes     int
	run                   *reduceRun
	mb                    float64
}

// openPhase starts a phase that runs next once everything the phase
// awaits has completed, and returns the completion callback to hand to
// each of its flows and ops. The caller sets next's arguments on
// t.phase. Fabric and HDFS completions are always events, never
// synchronous, so counting each flow as it starts is safe.
func (t *Task) openPhase(next phaseStep) func() {
	t.phase = phaseBarrier{next: next}
	if t.arriveCB == nil {
		t.arriveCB = t.arrive
	}
	return t.arriveCB
}

// await registers one of the phase's flows: tracked for kill support
// and counted by the barrier.
func (t *Task) await(f *cluster.Flow) {
	t.liveFlows = append(t.liveFlows, f)
	t.phase.pending++
}

// awaitOp registers one of the phase's HDFS operations.
func (t *Task) awaitOp(op canceler) {
	t.trackOp(op)
	t.phase.pending++
}

// arrive is a phase completion; the last one runs the continuation.
func (t *Task) arrive() {
	b := &t.phase
	if b.pending--; b.pending != 0 {
		return
	}
	j := t.Job
	switch b.next {
	case stepMapMerge:
		j.mapMerge(t, b.combinedMB, b.overlapMB, b.numSpills)
	case stepMapFinish:
		j.mapFinish(t, b.combinedMB, b.numSpills, b.passes)
	case stepFetched:
		j.fetched(b.run, b.mb)
	case stepReduceOutput:
		j.reduceOutput(b.run, b.mb)
	}
}
