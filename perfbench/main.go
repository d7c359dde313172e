// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed host-time budget, checks the program's outputs,
// and prints every metric with its unit; the last line of standard
// output is the JSON result. See README.md in this directory.
//
//	bash perfbench/run.sh --workload fleet-serial --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"peak_heap_mb", "MB"},
	{"sim_job_p50_s", "s"},
	{"sim_job_p99_s", "s"},
	{"sim_job_mean_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1). A metric of a
// layer that does no such work on a workload reads 0 there.
var perLayer = []metricDef{
	{"sim.cpu_share", "ratio"},
	{"cluster.cpu_share", "ratio"},
	{"yarn.cpu_share", "ratio"},
	{"hdfs.cpu_share", "ratio"},
	{"mapreduce.cpu_share", "ratio"},
	{"core.cpu_share", "ratio"},
	{"tuner.cpu_share", "ratio"},
	{"mrconf.cpu_share", "ratio"},
	{"metrics.cpu_share", "ratio"},
	{"trace.cpu_share", "ratio"},
	{"experiments.cpu_share", "ratio"},
	{"gc.sample_share", "ratio"},
	{"profile.coverage", "ratio"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.rng_cpu_share", "ratio"},
	{"sim.cores_used", "cores"},
	{"gc.alloc_mb", "MB"},
	{"gc.cycles", "count"},
	{"gc.cpu_share", "ratio"},
	{"gc.pause_s", "s"},
	{"core.controller_calls", "count"},
	{"core.controller_s", "s"},
	{"tuner.test_waves", "count"},
	{"tuner.tuned_gain_pct", "%"},
	{"tuner.test_overhead_pct", "%"},
	{"mapreduce.task_attempts", "count"},
	{"mapreduce.attempt_success_ratio", "ratio"},
	{"mapreduce.spill_ratio", "ratio"},
	{"trace.sink_events", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// minPasses is the least number of passes a run makes whatever its
// budget: two outputs to compare, and in a traced run one untraced
// and one traced pass.
const minPasses = 2

// buildDir is where a run writes its stamped result, spans and
// profiles, relative to the checkout root.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames()))
	seed := fs.Uint64("seed", recorded.Seed, "workload seed")
	seconds := fs.Int("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q; want one of %v\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, got %d\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	st, err := newStamp(*name, *seed, *seconds, *traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s bench=%s\n",
		st.Workload, st.Seed, st.Seconds, st.Trace, st.NProc, st.GOMAXPROCS, st.GoVersion, st.Commit, st.Bench)

	rep, out, err := measure(w, st, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeOutputs(st, rep, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printReport(stdout, rep)
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passStat is one pass as the stamped result file records it.
type passStat struct {
	Traced    bool    `json:"traced"`
	WallS     float64 `json:"wall_s"`
	Jobs      int     `json:"jobs"`
	JobsPerS  float64 `json:"jobs_per_s"`
	PeakHeapM float64 `json:"peak_heap_mb"`
	Digest    string  `json:"digest"`
	Error     string  `json:"error,omitempty"`
}

// report is the stamped result file of one run.
type report struct {
	Stamp    stamp      `json:"stamp"`
	Result   result     `json:"result"`
	FailFrac float64    `json:"fail_frac"`
	Passes   []passStat `json:"passes"`
	Errors   []string   `json:"errors,omitempty"`
	// Extra holds figures printed for people but kept out of the
	// result line: the other mode's headline numbers.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// traceOut is what a traced run keeps in memory until it ends.
type traceOut struct {
	spans    []span
	profiles [][]byte
}

// measure runs the workload: set-up repetitions, then passes until the
// budget is spent, then the workload's recheck. Passes alternate
// untraced and traced in a traced run.
func measure(w workloadDef, st stamp, stdout io.Writer) (*report, *traceOut, error) {
	runStart := time.Now()
	setups := make([]float64, w.setupReps)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		w.setup(st.Seed)
		setups[i] = time.Since(t0).Seconds()
	}
	setupKeep = nil

	rep := &report{Stamp: st}
	ref := recorded.digestFor(st.Workload, st.Seed)
	// check compares a pass's output with the reference: the recorded
	// digest at the recorded seed, else the run's first output.
	check := func(p *passResult) string {
		d := digest(p.text)
		if ref == "" {
			ref = d
		}
		if p.err == nil && d != ref {
			p.err = fmt.Errorf("output digest %.12s differs from reference %.12s", d, ref)
			p.failed = p.ops
		}
		rep.Result.Attempted += p.ops
		rep.Result.Failed += p.failed
		if p.err != nil {
			rep.Errors = append(rep.Errors, p.err.Error())
		}
		return d
	}

	hw := startHeapWatch()
	defer hw.close()
	var tr *tracer
	out := &traceOut{}
	if st.Trace == 1 {
		tr = newTracer(runStart)
	}
	var fold profileFold
	var plain, traced, peaks []float64 // jobs/s of untraced and traced passes; untraced heap peaks
	var first *passResult
	layerVals := map[string][]float64{}
	deadline := time.Now().Add(time.Duration(st.Seconds) * time.Second)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		on := st.Trace == 1 && i%2 == 1
		var pt *tracer
		var prof bytes.Buffer
		runtime.GC()
		if on {
			pt = tr
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, nil, fmt.Errorf("start CPU profile: %w", err)
			}
		}
		passID := pt.begin("pass", 0)
		hw.take()
		before := readRT()
		p := w.pass(st.Seed, pt, passID)
		after := readRT()
		// The pass's heap high-water is the 99th percentile of its heap
		// samples: a single reading at the top of a GC cycle moves the
		// maximum by tens of percent from pass to pass.
		peakMB := percentile(hw.take(), 99) / (1 << 20)
		pt.end(passID)
		if on {
			pprof.StopCPUProfile()
			if err := fold.addProfile(prof.Bytes()); err != nil {
				return nil, nil, err
			}
			out.profiles = append(out.profiles, prof.Bytes())
		}

		wall := after.wall.Sub(before.wall).Seconds()
		jps := float64(p.jobs) / wall
		d := check(&p)
		ps := passStat{Traced: on, WallS: wall, Jobs: p.jobs, JobsPerS: jps, PeakHeapM: peakMB, Digest: d}
		if p.err != nil {
			ps.Error = p.err.Error()
		}
		rep.Passes = append(rep.Passes, ps)
		fmt.Fprintf(stdout, "pass %d traced=%v: %d jobs in %.3f s, %.1f jobs/s, heap peak %.1f MB, digest %.12s\n",
			i+1, on, p.jobs, wall, jps, peakMB, d)
		if first == nil {
			first = &p
		}
		if !on {
			plain = append(plain, jps)
			peaks = append(peaks, peakMB)
			continue
		}
		traced = append(traced, jps)
		for k, v := range p.layer {
			layerVals[k] = append(layerVals[k], v)
		}
		host := map[string]float64{
			"sim.ns_per_event": ratio(wall*1e9, p.layer["sim.events"]),
			"sim.cores_used":   (after.procCPU - before.procCPU) / wall,
			"gc.alloc_mb":      (after.allocBytes - before.allocBytes) / (1 << 20),
			"gc.cycles":        after.gcCycles - before.gcCycles,
			"gc.cpu_share":     ratio(after.gcCPU-before.gcCPU, after.usedCPU-before.usedCPU),
			"gc.pause_s":       float64(after.pauseNS-before.pauseNS) / 1e9,
		}
		for k, v := range host {
			layerVals[k] = append(layerVals[k], v)
		}
	}
	if w.recheck != nil {
		p := w.recheck(st.Seed)
		d := check(&p)
		fmt.Fprintf(stdout, "recheck: %d jobs, digest %.12s\n", p.jobs, d)
	}

	metrics := map[string]float64{}
	extra := map[string]float64{}
	headline := map[string]float64{
		"setup_s":        median(setups),
		"jobs_per_s":     median(plain),
		"peak_heap_mb":   median(peaks),
		"sim_job_p50_s":  first.simP50,
		"sim_job_p99_s":  first.simP99,
		"sim_job_mean_s": first.simMean,
	}
	if st.Trace == 0 {
		metrics = headline
		for _, k := range []string{"tuner.tuned_gain_pct", "tuner.test_overhead_pct"} {
			if v, ok := first.layer[k]; ok {
				extra[k] = v
			}
		}
	} else {
		extra = headline
		extra["traced_jobs_per_s"] = median(traced)
		for _, m := range perLayer {
			metrics[m.name] = median(layerVals[m.name])
		}
		for _, l := range layers {
			metrics[l+".cpu_share"] = fold.share(l)
		}
		metrics["gc.sample_share"] = fold.share(layerGC)
		metrics["profile.coverage"] = 1 - fold.share(layerOther)
		metrics["sim.rng_cpu_share"] = ratio(float64(fold.rng), float64(fold.total))
		metrics["bench.trace_overhead_pct"] = 100 * (ratio(median(plain), median(traced)) - 1)
		extra["profile.samples"] = float64(fold.total)
		out.spans = tr.spans
	}
	defs := endToEnd
	if st.Trace == 1 {
		defs = perLayer
	}
	rep.Result.Metrics = make(map[string]metricValue, len(defs))
	for _, m := range defs {
		rep.Result.Metrics[m.name] = metricValue{Value: metrics[m.name], Unit: m.unit}
	}
	rep.Result.Correct = rep.Result.Failed == 0 && len(rep.Errors) == 0
	rep.FailFrac = ratio(float64(rep.Result.Failed), float64(rep.Result.Attempted))
	rep.Extra = extra
	return rep, out, nil
}

// printReport prints the metric table and, last, the result line.
func printReport(w io.Writer, rep *report) {
	defs := endToEnd
	if rep.Stamp.Trace == 1 {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", m.name, rep.Result.Metrics[m.name].Value, m.unit)
	}
	for _, k := range sortedKeys(rep.Extra) {
		fmt.Fprintf(w, "%-32s %16.6g (not in the result line)\n", k, rep.Extra[k])
	}
	fmt.Fprintf(w, "%-32s %16.6g ratio (%d of %d operations failed)\n", "fail_frac",
		rep.FailFrac, rep.Result.Failed, rep.Result.Attempted)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "check failed: %s\n", e)
	}
	line, _ := json.Marshal(rep.Result) // plain structs and maps of numbers: cannot fail
	fmt.Fprintln(w, string(line))
}

// writeOutputs writes the stamped result and, for a traced run, its
// spans and CPU profiles under buildDir.
func writeOutputs(st stamp, rep *report, out *traceOut) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", st.Workload, st.Seed, st.Trace)
	files := map[string][]byte{}
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	files[filepath.Join(buildDir, "results", base+".json")] = js
	if st.Trace == 1 {
		spans, err := json.Marshal(out.spans)
		if err != nil {
			return fmt.Errorf("encode spans: %w", err)
		}
		files[filepath.Join(buildDir, "trace", base+".spans.json")] = spans
		for i, p := range out.profiles {
			files[filepath.Join(buildDir, "trace", fmt.Sprintf("%s.%d.pprof", base, i+1))] = p
		}
	}
	var errs []error
	for path, data := range files {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			errs = append(errs, err)
			continue
		}
		errs = append(errs, os.WriteFile(path, data, 0o644))
	}
	return errors.Join(errs...)
}
