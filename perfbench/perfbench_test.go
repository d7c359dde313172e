package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestLayerOfInnermostRepoFrame(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
		rng   bool
	}{
		{[]string{"runtime.mallocgc", "repro/internal/cluster.(*Fabric).Start",
			"repro/internal/sim.(*Engine).RunUntil", "main.main"}, "cluster", false},
		{[]string{"math/rand.seedrand", "math/rand.(*rngSource).Seed",
			"repro/internal/sim.(*Source).StreamInto", "repro/internal/mapreduce.Submit"}, "sim", true},
		{[]string{"repro/internal/experiments.RunStream.func3", "repro/internal/sim.(*Engine).RunUntil"},
			"experiments", false},
		{[]string{"repro/internal/tuner.argmax[...]", "repro/internal/core.(*Tuner).TaskCompleted"},
			"tuner", false},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC, false},
		{[]string{"repro/internal/workload.Benchmark.Splits", "repro/internal/mapreduce.Submit"},
			layerOther, false},
		{[]string{"time.Now", "main.(*timedController).done",
			"repro/internal/mapreduce.(*Job).launch"}, layerOther, false},
		{[]string{"repro/perfbench.spin", "testing.tRunner"}, layerOther, false},
		{nil, layerGC, false},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
		if got := usesRNG(c.stack); got != c.rng {
			t.Errorf("usesRNG(%q) = %v, want %v", c.stack, got, c.rng)
		}
	}
}

func TestProfileFoldShares(t *testing.T) {
	var f profileFold
	f.add([]string{"repro/internal/yarn.(*ResourceManager).assign"}, 3)
	f.add([]string{"math/rand.(*Rand).Int63", "repro/internal/hdfs.(*FileSystem).Create"}, 1)
	f.add([]string{"runtime.bgsweep"}, 4)
	want := map[string]float64{"yarn": 0.375, "hdfs": 0.125, layerGC: 0.5, "sim": 0}
	for l, w := range want {
		if got := f.share(l); got != w {
			t.Errorf("share(%s) = %v, want %v", l, got, w)
		}
	}
	if f.total != 8 || f.rng != 1 {
		t.Errorf("total, rng = %d, %d; want 8, 1", f.total, f.rng)
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	var f profileFold
	if err := f.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	// spin is a main-package frame, so its samples fold into "other".
	if f.total == 0 || f.byLayer[layerOther] == 0 {
		t.Fatalf("fold of a busy profile: total %d, by layer %v", f.total, f.byLayer)
	}
	if err := f.addProfile([]byte("not a profile")); err == nil {
		t.Error("decoding garbage succeeded")
	}
}

func TestHeapWatchSamplesWhileRunning(t *testing.T) {
	h := startHeapWatch()
	var keep [][]byte
	total := 0
	for i := 0; i < 20; i++ {
		keep = append(keep, make([]byte, 1<<16))
		time.Sleep(heapPollEvery)
		total += len(h.take())
	}
	h.close()
	if total < 20 || len(keep) != 20 {
		t.Errorf("took %d heap samples over 20 intervals, want at least one per take", total)
	}
}

// sinkOf folds job latencies into a stats sink, as RunStream does.
func sinkOf(durs []float64) trace.ClassStats {
	s := trace.NewStatsSink()
	for i, d := range durs {
		job := fmt.Sprintf("job-%d", i)
		s.Add(trace.Event{Job: job, Kind: trace.JobSubmit})
		s.Add(trace.Event{Time: d, Job: job, Kind: trace.JobFinish})
	}
	return s.Overall()
}

// nearestRank is the exact p-th percentile of sorted by the rank rule
// ClassStats uses: the ceil(p/100·n)-th smallest value.
func nearestRank(sorted []float64, p float64) float64 {
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

func TestHistPercentileWithinBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	durs := make([]float64, 2000)
	for i := range durs {
		durs[i] = 30 * math.Exp(0.6*rng.NormFloat64()) // all above bucket 0
	}
	c := sinkOf(durs)
	sorted := append([]float64(nil), durs...)
	sort.Float64s(sorted)
	prev := 0.0
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 99.9} {
		got, exact := histPercentile(c, p), nearestRank(sorted, p)
		if r := got / exact; r < 1/histBase || r > histBase {
			t.Errorf("p%v = %v, exact %v: off by more than one bucket", p, got, exact)
		}
		if got < prev {
			t.Errorf("p%v = %v below the previous percentile %v", p, got, prev)
		}
		prev = got
	}
	if got := histPercentile(c, 100); got != sorted[len(sorted)-1] {
		t.Errorf("p100 = %v, want the maximum %v", got, sorted[len(sorted)-1])
	}
	// Unlike the bucket midpoints, the interpolated percentile moves
	// when the distribution moves by less than a bucket.
	for i := range durs {
		durs[i] *= 1.02
	}
	if shifted := sinkOf(durs); histPercentile(shifted, 50) == histPercentile(c, 50) {
		t.Error("p50 did not move when every latency grew by 2%")
	}
}

func TestHistPercentileConstant(t *testing.T) {
	c := sinkOf([]float64{42, 42, 42})
	for _, p := range []float64{1, 50, 99, 100} {
		if got := histPercentile(c, p); got != 42 {
			t.Errorf("p%v of a constant = %v, want 42", p, got)
		}
	}
	if got := histPercentile(trace.ClassStats{}, 50); got != 0 {
		t.Errorf("p50 of no jobs = %v, want 0", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {99, 4.96}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestDigestStable(t *testing.T) {
	// The recorded digests are only meaningful if the digest of a text
	// never changes: pin it to SHA-256.
	const want = "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
	if got := digest("hello world"); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
	for name, d := range recorded.Digests {
		if _, ok := workloads[name]; !ok {
			t.Errorf("digests.json records unknown workload %q", name)
		}
		if len(d) != 64 {
			t.Errorf("digests.json: %s digest %q is not a SHA-256", name, d)
		}
	}
}

func TestStampDiffIgnoresCommit(t *testing.T) {
	a := stamp{Workload: "fleet-serial", Seed: 7, Seconds: 20, NProc: 2, GOMAXPROCS: 2,
		GoVersion: "go1.24.0", Bench: "b", Commit: "x"}
	b := a
	b.Commit = "y"
	if d := stampDiff(a, b); len(d) != 0 {
		t.Errorf("stamps differing only in commit: diff %v", d)
	}
	b.Seed, b.GOMAXPROCS = 8, 4
	if d := stampDiff(a, b); !reflect.DeepEqual(d, []string{"seed", "gomaxprocs"}) {
		t.Errorf("diff = %v, want [seed gomaxprocs]", d)
	}
}

// The result line must carry exactly the metrics BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		var got, want []string
		for _, m := range declared {
			want = append(want, m.Name+" "+m.Unit)
		}
		for _, m := range defs {
			got = append(got, m.name+" "+m.unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics in code %v, in BENCHMARK.json %v", kind, got, want)
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd)
	check("per-layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json %v, in code %v", names, workloadNames())
	}
}
