// Command mrexperiments regenerates the tables and figures of the
// MRONLINE paper (HPDC'14) on the simulated 19-node cluster.
//
// Usage:
//
//	mrexperiments -run all
//	mrexperiments -run fig4,fig13 -seed 7
//
// Artifacts: table2 table3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// fig12 fig13 fig14 fig15 fig16 testruns hotspot straggler
// amortization stream faults tournament
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mrconf"
	"repro/internal/trace"
	"repro/internal/tuner"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// allArtifacts is what -run all prints, in order.
var allArtifacts = []string{"table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "testruns",
	"hotspot", "straggler", "amortization", "stream", "faults", "tournament"}

// run is the command: it parses args, writes the artifacts to w and
// errors to stderr, and returns the exit code (2 for bad input, 1 for
// I/O failures).
func run(args []string, w, stderr io.Writer) (code int) {
	flags := flag.NewFlagSet("mrexperiments", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		runIDs     = flags.String("run", "all", "comma-separated artifact ids, or 'all'")
		seed       = flags.Uint64("seed", 42, "simulation seed")
		htmlPath   = flags.String("html", "", "write a self-contained HTML report (runs everything)")
		cpuProfile = flags.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flags.String("memprofile", "", "write a heap profile to this file on exit")
		faultSpec  = flags.String("faults", "", "inject faults from this JSON spec into every run (see examples/faults/)")
		tunerName  = flags.String("tuner", "hill", "optimizer backend for aggressive tuning runs: "+strings.Join(tuner.Backends(), "|"))
		warmStart  = flags.String("warmstart", "", "warm-start store JSON file: load search state per job class before running, save after")
		cells      = flags.Bool("cells", false, "run the continuous-serving legs as one serving cell per rack")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(c int, err error) int {
		fmt.Fprintln(stderr, err)
		return c
	}

	if err := validBackend(*tunerName); err != nil {
		return fail(2, err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				code = fail(1, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = fail(1, err)
			}
			f.Close()
		}()
	}

	env := experiments.Env{Seed: *seed, Backend: *tunerName, Cells: *cells}
	var store *tuner.Store
	if *warmStart != "" {
		if s, err := tuner.LoadStore(*warmStart); err == nil {
			store = s
		} else if errors.Is(err, fs.ErrNotExist) {
			store = tuner.NewStore()
		} else {
			return fail(2, err)
		}
		env.WarmStore = store
	}
	saveStore := func() int {
		if store == nil {
			return 0
		}
		if err := store.Save(*warmStart); err != nil {
			return fail(1, err)
		}
		return 0
	}
	if *faultSpec != "" {
		fspec, err := faults.Load(*faultSpec)
		if err != nil {
			return fail(2, err)
		}
		env.FaultSpec = fspec
		// Every artifact but the stream runs its jobs on the testbed, so
		// the spec's nodes must exist there (the stream checks them
		// against its own cluster in StreamSpec.Validate).
		if *htmlPath != "" || *runIDs != "stream" {
			if err := env.ValidateFaults(); err != nil {
				return fail(2, err)
			}
		}
	}
	if *htmlPath != "" {
		f, err := os.Create(*htmlPath)
		if err != nil {
			return fail(1, err)
		}
		if err := env.BuildReport().RenderHTML(f); err != nil {
			return fail(1, err)
		}
		if err := f.Close(); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(w, "wrote %s\n", *htmlPath)
		return saveStore()
	}
	ids := strings.Split(*runIDs, ",")
	if *runIDs == "all" {
		ids = allArtifacts
	}
	need := func(id string) bool { return slices.Contains(ids, id) }
	// Reject an invalid stream spec (e.g. a -faults node outside the
	// cluster) before any artifact runs.
	if need("stream") {
		if err := streamSpec(env).Validate(); err != nil {
			return fail(2, err)
		}
	}

	// Expedited results back Figs 4-9; compute each set once.
	var exp4, exp5, exp6 []experiments.ExpeditedRow
	if need("fig4") || need("fig7") {
		exp4 = env.Fig4()
	}
	if need("fig5") || need("fig8") {
		exp5 = env.Fig5()
	}
	if need("fig6") || need("fig9") {
		exp6 = env.Fig6()
	}
	var mt *experiments.MultiTenantResult
	if need("fig14") || need("fig15") || need("fig16") {
		m := env.MultiTenant()
		mt = &m
	}

	for _, id := range ids {
		switch id {
		case "table2":
			table2(w)
		case "table3":
			table3(w, env)
		case "fig4":
			expedited(w, "Figure 4: Terasort, expedited test runs use case", exp4)
		case "fig5":
			expedited(w, "Figure 5: Wikipedia apps, expedited test runs use case", exp5)
		case "fig6":
			expedited(w, "Figure 6: Freebase apps, expedited test runs use case", exp6)
		case "fig7":
			spills(w, "Figure 7: Terasort spilled records", exp4)
		case "fig8":
			spills(w, "Figure 8: Wikipedia apps spilled records", exp5)
		case "fig9":
			spills(w, "Figure 9: Freebase apps spilled records", exp6)
		case "fig10":
			singleRun(w, "Figure 10: Terasort, fast single run use case", env.Fig10())
		case "fig11":
			singleRun(w, "Figure 11: Wikipedia apps, fast single run use case", env.Fig11())
		case "fig12":
			singleRun(w, "Figure 12: Freebase apps, fast single run use case", env.Fig12())
		case "fig13":
			jobSize(w, env.Fig13())
		case "fig14":
			fig14(w, mt)
		case "fig15":
			fig15(w, mt)
		case "fig16":
			fig16(w, mt)
		case "testruns":
			testRuns(w, env)
		case "hotspot":
			hotspot(w, env)
		case "straggler":
			straggler(w, env)
		case "amortization":
			amortization(w, env)
		case "stream":
			stream(w, env)
		case "faults":
			faultRecovery(w, env)
		case "tournament":
			tournament(w, env)
		default:
			return fail(2, fmt.Errorf("unknown artifact %q", id))
		}
	}
	return saveStore()
}

// validBackend fails fast on an unknown -tuner value, listing what is
// actually registered.
func validBackend(name string) error {
	for _, b := range tuner.Backends() {
		if b == name {
			return nil
		}
	}
	return fmt.Errorf("unknown -tuner backend %q (registered: %s)",
		name, strings.Join(tuner.Backends(), ", "))
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

func table2(w io.Writer) {
	header(w, "Table 2: key configuration parameters and defaults")
	fmt.Fprintf(w, "%-52s %10s %8s %8s %12s %s\n", "parameter", "default", "min", "max", "category", "scope")
	for _, p := range mrconf.Params() {
		fmt.Fprintf(w, "%-52s %10g %8g %8g %12s %s\n", p.Name, p.Default, p.Min, p.Max, p.Category, p.Scope)
	}
}

func table3(w io.Writer, env experiments.Env) {
	header(w, "Table 3: benchmark characteristics (table vs measured)")
	fmt.Fprintf(w, "%-26s %9s %9s %9s | %9s %9s %5s %4s %s\n",
		"benchmark", "input", "shuffle", "output", "meas shfl", "meas out", "maps", "red", "type")
	for _, r := range env.Table3() {
		fmt.Fprintf(w, "%-26s %8.1fG %8.1fG %8.1fG | %8.1fG %8.1fG %5d %4d %s\n",
			r.Bench, r.InputMB/1024, r.ShuffleMB/1024, r.OutputMB/1024,
			r.MeasShuffleMB/1024, r.MeasOutputMB/1024, r.Maps, r.Reduces, r.JobType)
	}
}

func expedited(w io.Writer, title string, rows []experiments.ExpeditedRow) {
	header(w, title)
	fmt.Fprintf(w, "%-26s %9s %9s %9s %9s %12s\n", "benchmark", "default", "offline", "MRONLINE", "test run", "improvement")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %8.0fs %8.0fs %8.0fs %8.0fs %11.0f%%\n",
			r.Bench, r.DefaultDur, r.OfflineDur, r.MronlineDur, r.TestRunDur, 100*r.Improvement())
	}
}

func spills(w io.Writer, title string, rows []experiments.ExpeditedRow) {
	header(w, title)
	fmt.Fprintf(w, "%-26s %10s %10s %10s %10s\n", "benchmark", "optimal", "default", "offline", "MRONLINE")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %10.2e %10.2e %10.2e %10.2e\n",
			r.Bench, r.OptimalSpills, r.DefaultSpills, r.OfflineSpills, r.MronlineSpills)
	}
}

func singleRun(w io.Writer, title string, rows []experiments.SingleRunRow) {
	header(w, title)
	fmt.Fprintf(w, "%-26s %9s %9s %12s\n", "benchmark", "default", "MRONLINE", "improvement")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %8.0fs %8.0fs %11.0f%%\n", r.Bench, r.DefaultDur, r.MronlineDur, 100*r.Improvement())
	}
}

func jobSize(w io.Writer, rows []experiments.JobSizeRow) {
	header(w, "Figure 13: Terasort job-size study")
	fmt.Fprintf(w, "%6s %5s %5s %9s %9s %12s\n", "size", "maps", "red", "default", "MRONLINE", "improvement")
	for _, r := range rows {
		fmt.Fprintf(w, "%4dGB %5d %5d %8.0fs %8.0fs %11.0f%%\n",
			r.SizeGB, r.Maps, r.Reduces, r.DefaultDur, r.MronlineDur, 100*r.Improvement())
	}
}

func fig14(w io.Writer, mt *experiments.MultiTenantResult) {
	header(w, "Figure 14: multi-tenant job execution time (Terasort 60GB + BBP, fair share)")
	fmt.Fprintf(w, "%-10s %9s %9s %12s\n", "app", "default", "MRONLINE", "improvement")
	fmt.Fprintf(w, "%-10s %8.0fs %8.0fs %11.0f%%\n", "Terasort",
		mt.Default.Terasort.Duration, mt.Mronline.Terasort.Duration,
		100*(mt.Default.Terasort.Duration-mt.Mronline.Terasort.Duration)/mt.Default.Terasort.Duration)
	fmt.Fprintf(w, "%-10s %8.0fs %8.0fs %11.0f%%\n", "BBP",
		mt.Default.BBP.Duration, mt.Mronline.BBP.Duration,
		100*(mt.Default.BBP.Duration-mt.Mronline.BBP.Duration)/mt.Default.BBP.Duration)
	fmt.Fprintf(w, "Terasort spilled records: %.2e -> %.2e\n",
		mt.Default.Terasort.Counters.SpilledRecords(), mt.Mronline.Terasort.Counters.SpilledRecords())
}

func fig15(w io.Writer, mt *experiments.MultiTenantResult) {
	header(w, "Figure 15: multi-tenant memory utilization")
	utilRows(w, mt, func(r experiments.MultiTenantRun) [4]float64 {
		return [4]float64{r.Terasort.MapMemUtil, r.Terasort.ReduceMemUtil, r.BBP.MapMemUtil, r.BBP.ReduceMemUtil}
	})
}

func fig16(w io.Writer, mt *experiments.MultiTenantResult) {
	header(w, "Figure 16: multi-tenant CPU utilization")
	utilRows(w, mt, func(r experiments.MultiTenantRun) [4]float64 {
		return [4]float64{r.Terasort.MapCPUUtil, r.Terasort.ReduceCPUUtil, r.BBP.MapCPUUtil, r.BBP.ReduceCPUUtil}
	})
}

func utilRows(w io.Writer, mt *experiments.MultiTenantResult, pick func(experiments.MultiTenantRun) [4]float64) {
	labels := [4]string{"Terasort-m", "Terasort-r", "BBP-m", "BBP-r"}
	def := pick(mt.Default)
	mro := pick(mt.Mronline)
	fmt.Fprintf(w, "%-12s %9s %9s\n", "container", "default", "MRONLINE")
	for i, l := range labels {
		fmt.Fprintf(w, "%-12s %8.0f%% %8.0f%%\n", l, def[i]*100, mro[i]*100)
	}
}

func hotspot(w io.Writer, env experiments.Env) {
	header(w, "Extension: hot-spot avoidance (4 interfered nodes, Terasort 20GB)")
	r := env.HotSpotStudy(4)
	fmt.Fprintf(w, "%-22s %9s\n", "placement", "job time")
	fmt.Fprintf(w, "%-22s %8.0fs\n", "clean cluster", r.CleanDur)
	fmt.Fprintf(w, "%-22s %8.0fs\n", "hot, blind", r.DefaultDur)
	fmt.Fprintf(w, "%-22s %8.0fs (%.0f%% vs blind)\n", "hot, avoiding", r.AvoidDur, 100*r.Improvement())
}

func straggler(w io.Writer, env experiments.Env) {
	header(w, "Extension: straggler mitigation (interference arrives mid-job)")
	r := env.StragglerStudy(3)
	fmt.Fprintf(w, "%-22s %9s\n", "mitigation", "job time")
	fmt.Fprintf(w, "%-22s %8.0fs\n", "none", r.NoneDur)
	fmt.Fprintf(w, "%-22s %8.0fs (%d launched, %d won)\n", "speculation", r.SpeculationDur, r.SpecLaunches, r.SpecWins)
	fmt.Fprintf(w, "%-22s %8.0fs\n", "hot-spot avoidance", r.AvoidanceDur)
	fmt.Fprintf(w, "%-22s %8.0fs\n", "both", r.BothDur)
}

func amortization(w io.Writer, env experiments.Env) {
	header(w, "Extension: knowledge-base amortization (Terasort 60GB, 8 runs)")
	rows := env.Amortization(workload.Terasort(60, 0, 0), 8)
	fmt.Fprintf(w, "%5s %12s %12s %14s\n", "runs", "default", "MRONLINE+KB", "conservative")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d %11.0fs %11.0fs %13.0fs\n",
			r.Runs, r.CumulativeDefault, r.CumulativeMronline, r.CumulativeConserv)
	}
}

func stream(w io.Writer, env experiments.Env) {
	header(w, "Extension: multi-job arrival stream (9 mixed jobs, fair share)")
	r := env.JobStream(9, 30)
	fmt.Fprintf(w, "mean completion: default %.0fs -> MRONLINE %.0fs (%.0f%%)\n",
		r.MeanDefault, r.MeanMronline, 100*r.Improvement())
	fmt.Fprintf(w, "makespan:        default %.0fs -> MRONLINE %.0fs\n",
		r.MakespanDefault, r.MakespanMron)

	header(w, "Extension: continuous serving (1h stream, 10,016 nodes, fair share)")
	spec := streamSpec(env)
	if env.Cells {
		fmt.Fprintln(w, "rack-cell mode: one serving cell per rack")
	}
	fmt.Fprintf(w, "%-10s %6s %10s %9s %9s %9s\n",
		"leg", "jobs", "makespan", "mean", "p99~", "max")
	var defStats *trace.StatsSink
	for _, leg := range []struct {
		name  string
		tuned bool
	}{{"default", false}, {"MRONLINE", true}} {
		spec.Tuned = leg.tuned
		res := experiments.RunStream(spec)
		all := res.Stats.Overall()
		fmt.Fprintf(w, "%-10s %6d %9.0fs %8.1fs %8.1fs %8.1fs\n",
			leg.name, res.Jobs, res.Makespan, all.MeanDuration(),
			all.ApproxPercentile(99), all.DurMax)
		if !leg.tuned {
			defStats = res.Stats
		}
	}
	fmt.Fprintln(w, "\nper-class latency (default leg):")
	defStats.WriteSummary(w)
}

// streamSpec is the continuous-serving leg: one simulated hour of the
// flagship stream, on the rack-cell path (with the -faults spec) when
// -cells is set.
func streamSpec(env experiments.Env) experiments.StreamSpec {
	spec := experiments.DefaultStreamSpec(env.Seed)
	spec.HorizonSecs = 3600
	if env.Cells {
		spec.Parallel = 1
		spec.Faults = env.FaultSpec
	}
	return spec
}

func faultRecovery(w io.Writer, env experiments.Env) {
	header(w, "Extension: failure recovery under tuning (Terasort 20GB, mid-job node crash)")
	rows := env.FaultRecovery()
	fmt.Fprintf(w, "%-18s %9s %7s %8s %8s %8s %8s\n",
		"leg", "job time", "failed", "killed", "reexec", "lost", "rerepl")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %8.0fs %7v %8d %8d %8d %8d\n",
			r.Leg, r.Duration, r.Failed, r.NodeLossKills, r.MapsReExecuted,
			r.Faults.ContainersLost, r.Faults.BlocksReReplicated)
	}
}

func tournament(w io.Writer, env experiments.Env) {
	header(w, "Extension: optimizer backend tournament (Table 3 apps x "+
		strings.Join(tuner.Backends(), "/")+", crash churn, warm restart)")
	rows := env.Tournament(experiments.DefaultTournamentSpec())
	fmt.Fprintf(w, "%-26s %-7s %6s %6s %9s %9s %9s %8s | %9s %9s %6s | %5s %5s %9s\n",
		"benchmark", "backend", "evals", "waves", "test run", "tuned", "cost", "to15%",
		"churn tst", "churn tun", "failed", "coldW", "warmW", "warm tst")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %-7s %6d %6d %8.0fs %8.0fs %9.3f %8d | %8.0fs %8.0fs %6v | %5d %5d %8.0fs\n",
			r.Bench, r.Backend, r.Evals, r.Waves, r.TestRunDur, r.TunedDur, r.FinalCost,
			r.TestsTo15, r.ChurnTestDur, r.ChurnTunedDur, r.ChurnFailed,
			r.ColdWaves, r.WarmWaves, r.WarmDur)
	}
}

func testRuns(w io.Writer, env experiments.Env) {
	header(w, "Test-run count to a tuned configuration (paper §7)")
	rows := env.TestRunCounts(workload.Terasort(20, 0, 0), 4)
	fmt.Fprintf(w, "%-24s %6s %10s\n", "approach", "runs", "job time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %6d %9.0fs\n", r.Approach, r.Runs, r.BestDur)
	}
}
