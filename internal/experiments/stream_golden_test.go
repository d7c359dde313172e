package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

var updateStreamGolden = flag.Bool("update-stream-golden", false,
	"rewrite testdata/stream_golden.txt from the current RunStream")

// hashSink folds every trace event it sees into a SHA-256 digest, so a
// golden file can pin a whole event stream in one line.
type hashSink struct{ h hash.Hash }

func (s *hashSink) Add(e trace.Event) { fmt.Fprintf(s.h, "%+v\n", e) }

// renderStreamGolden runs one leg and renders everything the golden
// file pins about it: the report, the engine and sink event counts,
// the exact mean and makespan, the warm-start wave record and a digest
// of every trace event. It also checks that the "cluster" pseudo-job
// that carries node faults never counts as a finished job.
func renderStreamGolden(t *testing.T, name string, spec StreamSpec) string {
	t.Helper()
	hs := &hashSink{h: sha256.New()}
	spec.Sink = hs
	res := RunStream(spec)
	if n := res.Stats.Class("cluster").Jobs; n != 0 {
		t.Errorf("%s: cluster pseudo-class finished %d jobs, want 0", name, n)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n%s", name, res.Report())
	fmt.Fprintf(&b, "events=%d sink_events=%d\n", res.Events, res.SinkEvents)
	fmt.Fprintf(&b, "mean_dur=%v makespan=%v\n", res.MeanDur, res.Makespan)
	classes := make([]string, 0, len(res.ClassWaves))
	for c := range res.ClassWaves {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "class_waves %s=%v\n", c, res.ClassWaves[c])
	}
	fmt.Fprintf(&b, "trace_sha256=%x\n", hs.h.Sum(nil))
	return b.String()
}

// TestStreamGolden pins RunStream's output on every serving path
// against a recorded file. Unlike the same-seed tests, which compare
// two runs of one binary, this fails when a change moves the output at
// every seed. A diff here means the simulation changed; regenerate the
// file with -update-stream-golden only when that change is intended.
func TestStreamGolden(t *testing.T) {
	// Five classic legs (plain, tuned, warm-start, crash churn, churn
	// with tuning) and three rack-cell legs (plain, churn with tuning,
	// warm-start).
	plain := smallStreamSpec(11)
	tuned := plain
	tuned.Tuned = true
	warm := tuned
	warm.WarmStart = true
	faulted := plain
	faulted.Faults = churnSpec()
	faultedTuned := faulted
	faultedTuned.Tuned = true
	cells := plain
	cells.Parallel = 1
	cellsChurn := faultedTuned
	cellsChurn.Parallel = 1
	cellsWarm := warm
	cellsWarm.Parallel = 1

	var b strings.Builder
	for _, leg := range []struct {
		name string
		spec StreamSpec
	}{
		{"classic", plain},
		{"tuned", tuned},
		{"warmstart", warm},
		{"faults", faulted},
		{"faults+tuned", faultedTuned},
		{"cells", cells},
		{"cells+faults+tuned", cellsChurn},
		{"cells+warmstart", cellsWarm},
	} {
		b.WriteString(renderStreamGolden(t, leg.name, leg.spec))
	}
	path := filepath.Join("testdata", "stream_golden.txt")
	got := b.String()
	if *updateStreamGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stream golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stream golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
