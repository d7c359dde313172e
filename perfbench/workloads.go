package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// passResult is what one pass over a workload's fixed inputs produced.
// Every pass of a run does the same work, so its output must repeat.
type passResult struct {
	ops    int    // operations attempted: jobs, or tuning sessions
	failed int    // operations that failed
	jobs   int    // simulated jobs completed
	text   string // the deterministic output the digest covers
	err    error  // the first failed check, if any

	simP50, simP99, simMean float64 // simulated job latency, seconds

	// layer holds the pass's per-layer counts, keyed by metric name.
	layer map[string]float64
}

// workloadDef is one named workload of the benchmark.
type workloadDef struct {
	// setup builds what a pass runs on, through the program's public
	// entry points; setup_s times it.
	setup     func(seed uint64)
	setupReps int
	// pass runs the workload's inputs once. tr is nil in untraced
	// passes; parent is the pass span.
	pass func(seed uint64, tr *tracer, parent int) passResult
	// recheck, when set, produces the same output by a second path;
	// it runs once per run, untimed.
	recheck func(seed uint64) passResult
}

var workloads = map[string]workloadDef{
	"fleet-serial": {
		setup:     func(seed uint64) { fleetSetup(seed, 0) },
		setupReps: 61,
		pass: func(seed uint64, tr *tracer, parent int) passResult {
			return fleetPass(seed, 0, tr, parent)
		},
	},
	"fleet-cells": {
		setup:     func(seed uint64) { fleetSetup(seed, runtime.NumCPU()) },
		setupReps: 61,
		pass: func(seed uint64, tr *tracer, parent int) passResult {
			return fleetPass(seed, runtime.NumCPU(), tr, parent)
		},
		// Rack-cell output is pinned identical at any worker count.
		recheck: func(seed uint64) passResult { return fleetPass(seed, 1, nil, 0) },
	},
	"expedited-tune": {
		setup:     tuneSetup,
		setupReps: 101,
		pass:      tunePass,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fleetSliceSecs is the replayed slice of the simulated day: its first
// six hours, about 7,000 jobs at DefaultStreamSpec's arrival rate.
const fleetSliceSecs = 6 * 3600

// fleetSetup runs RunStream with the pass's spec over a horizon too
// short for any arrival, so it times the program's own construction of
// the cluster, RM(s), namenode(s), sinks and pools (one of each on the
// classic path, one per rack cell on the cell path) and nothing else.
func fleetSetup(seed uint64, parallel int) {
	spec := experiments.DefaultStreamSpec(seed)
	spec.HorizonSecs = 1e-9
	spec.Parallel = parallel
	if res := experiments.RunStream(spec); res.Jobs != 0 {
		panic(fmt.Sprintf("perfbench: set-up stream submitted %d jobs", res.Jobs))
	}
}

// fleetPass replays the slice untuned through RunStream: the classic
// serial path when parallel is 0, else the rack-cell path with that
// many window workers.
func fleetPass(seed uint64, parallel int, tr *tracer, parent int) passResult {
	spec := experiments.DefaultStreamSpec(seed)
	spec.HorizonSecs = fleetSliceSecs
	spec.Parallel = parallel
	id := tr.begin("run_stream", parent)
	res, err := runStream(spec)
	tr.end(id)
	if err != nil {
		return passResult{ops: 1, failed: 1, err: err}
	}
	o := res.Stats.Overall()
	p := passResult{
		ops:     res.Jobs,
		jobs:    res.Completed,
		text:    res.Report(),
		simP50:  histPercentile(o, 50),
		simP99:  histPercentile(o, 99),
		simMean: res.MeanDur,
		layer: map[string]float64{
			"sim.events":                      float64(res.Events),
			"trace.sink_events":               float64(res.SinkEvents),
			"mapreduce.task_attempts":         float64(o.MapStarts + o.RedStarts),
			"mapreduce.attempt_success_ratio": ratio(float64(o.MapFinishes+o.RedFinishes), float64(o.MapStarts+o.RedStarts)),
		},
	}
	switch {
	case res.Completed != res.Jobs:
		p.err = fmt.Errorf("completed %d of %d jobs", res.Completed, res.Jobs)
	case o.Jobs != res.Completed:
		p.err = fmt.Errorf("stats sink finished %d jobs, RunStream completed %d", o.Jobs, res.Completed)
	}
	if p.err != nil {
		p.failed = p.ops
	}
	return p
}

// runStream turns a RunStream panic (it panics when a job never
// completes) into an error.
func runStream(spec experiments.StreamSpec) (res experiments.StreamResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("RunStream: %v", r)
		}
	}()
	return experiments.RunStream(spec), nil
}

// The expedited test-run sessions of one pass: the four Wikipedia
// applications of Table 3 and Terasort 100 GB (the paper's Figs. 4 and
// 5), each tuned by every optimizer backend, at tuneReplicas
// environment seeds tuneReplicaStride apart. In a 12-seed trial the
// second environment seed roughly halved the seed-to-seed spread of
// the simulated latencies and gains. BBP is left out: its one-wave
// search gives a tuned gain of 1% with one backend and 41% with the
// others at seed 7, which would drown the other sessions in the mean.
var (
	tuneApps = []string{
		"bigram/Wikipedia", "invertedindex/Wikipedia", "wordcount/Wikipedia", "textsearch/Wikipedia",
		"terasort/100GB",
	}
	tuneBackends = []string{"hill", "spsa", "tpe"}
)

const (
	tuneReplicas      = 2
	tuneReplicaStride = 1_000_000
)

// setupKeep holds the last rigs tuneSetup built, so NewRig's work
// cannot be optimised away.
var setupKeep any

// tuneSetup builds the paper's 19-node testbed once for every job of a
// pass, as RunOne does before each job.
func tuneSetup(seed uint64) {
	rigs := make([]*experiments.Rig, 0, 3*len(tuneApps)*len(tuneBackends)*tuneReplicas)
	for len(rigs) < cap(rigs) {
		rigs = append(rigs, experiments.Env{Seed: seed}.NewRig(yarn.FIFOScheduler{}))
	}
	setupKeep = rigs
}

// session is one expedited test run: an aggressive tuned test run, a
// rerun at the tuner's best configuration and a default run.
type session struct {
	test, tuned, def mapreduce.Result
	best             mrconf.Config
	waves            int
	calls            int
	busy             time.Duration
}

func tunePass(seed uint64, tr *tracer, parent int) passResult {
	var durs []float64
	var text strings.Builder
	var p passResult
	var gain, overhead, waves, spilled, combined, ok, attempts, calls float64
	var busy time.Duration
	for _, name := range tuneApps {
		b, err := workload.ByName(name)
		if err != nil {
			panic(err) // tuneApps names Suite entries
		}
		for _, backend := range tuneBackends {
			for k := uint64(0); k < tuneReplicas; k++ {
				env := experiments.Env{Seed: seed + k*tuneReplicaStride}
				p.ops++
				s, err := runSession(env, b, backend, tr, parent)
				if err != nil {
					p.failed++
					if p.err == nil {
						p.err = err
					}
					fmt.Fprintf(&text, "%s %s seed=%d failed: %v\n", b.Name, backend, env.Seed, err)
					continue
				}
				fmt.Fprintf(&text, "%s %s seed=%d test=%v tuned=%v default=%v waves=%d best=%s\n",
					b.Name, backend, env.Seed, s.test.Duration, s.tuned.Duration, s.def.Duration, s.waves, s.best)
				for _, r := range []mapreduce.Result{s.test, s.tuned, s.def} {
					durs = append(durs, r.Duration)
					p.jobs++
					spilled += r.Counters.SpilledRecords()
					combined += r.Counters.CombineOutputRecs
					for _, rpt := range r.Reports {
						attempts++
						if !rpt.OOM && !rpt.Failed {
							ok++
						}
					}
				}
				gain += (s.def.Duration - s.tuned.Duration) / s.def.Duration
				overhead += (s.test.Duration - s.def.Duration) / s.def.Duration
				waves += float64(s.waves)
				calls += float64(s.calls)
				busy += s.busy
			}
		}
	}
	done := float64(p.ops - p.failed)
	p.text = text.String()
	p.simP50, p.simP99, p.simMean = percentile(durs, 50), percentile(durs, 99), mean(durs)
	p.layer = map[string]float64{
		"tuner.tuned_gain_pct":            100 * ratio(gain, done),
		"tuner.test_overhead_pct":         100 * ratio(overhead, done),
		"tuner.test_waves":                ratio(waves, done),
		"core.controller_calls":           calls,
		"core.controller_s":               busy.Seconds(),
		"mapreduce.task_attempts":         attempts,
		"mapreduce.attempt_success_ratio": ratio(ok, attempts),
		"mapreduce.spill_ratio":           ratio(spilled, combined),
	}
	return p
}

// runSession runs one session; a job that fails or never completes, or
// a best configuration mrconf rejects, fails the session.
func runSession(env experiments.Env, b workload.Benchmark, backend string, tr *tracer, parent int) (s session, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s %s: %v", b.Name, backend, r)
		}
	}()
	id := tr.begin("session", parent)
	defer tr.end(id)

	tn := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		core.TunerOptions{Strategy: core.Aggressive, Seed: env.Seed, Backend: backend})
	var ctrl mapreduce.Controller = tn
	var timed *timedController
	if tr != nil {
		timed = &timedController{inner: tn}
		ctrl = timed
	}
	run := tr.begin("test_run", id)
	s.test = env.RunOne(b, mrconf.Default(), ctrl)
	if sp := tr.end(run); sp != nil {
		s.calls, s.busy = timed.calls, timed.busy
		sp.Calls, sp.CallS = timed.calls, timed.busy.Seconds()
	}
	s.best = tn.BestConfig()
	mw, rw := tn.TestWaves()
	s.waves = mw + rw

	run = tr.begin("rerun", id)
	s.tuned = env.RunOne(b, s.best, nil)
	tr.end(run)
	run = tr.begin("default_run", id)
	s.def = env.RunOne(b, mrconf.Default(), nil)
	tr.end(run)

	for _, r := range []mapreduce.Result{s.test, s.tuned, s.def} {
		if r.Failed {
			return s, fmt.Errorf("%s %s: job failed: %v", b.Name, backend, r.Err)
		}
	}
	if err := mrconf.Validate(s.best); err != nil {
		return s, fmt.Errorf("%s %s: best config: %w", b.Name, backend, err)
	}
	return s, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
