package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies what a result was measured on. Two results are
// comparable only when every field but Commit agrees; Commit is the
// thing a comparison compares.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Bench is a digest of the benchmark's own files, so results of
	// different benchmark code never compare.
	Bench string `json:"bench"`
	// Commit is a digest of the program's Go sources and module files
	// in the checkout: the checkout the benchmark runs in need not be a
	// git repository.
	Commit string `json:"commit"`
}

//go:embed *
var benchFiles embed.FS

func newStamp(workload string, seed uint64, seconds, trace int) (stamp, error) {
	bench, err := treeDigest(benchFiles, ".", nil)
	if err != nil {
		return stamp{}, fmt.Errorf("digest benchmark files: %w", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		return stamp{}, err
	}
	commit, err := treeDigest(os.DirFS(wd), ".", isProgramFile)
	if err != nil {
		return stamp{}, fmt.Errorf("digest program sources: %w", err)
	}
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Bench:      bench,
		Commit:     commit,
	}, nil
}

// isProgramFile selects the files that make up the program: Go
// sources and module files outside the benchmark's directory and
// outside hidden directories such as the build directory.
func isProgramFile(path string, d fs.DirEntry) (keep, descend bool) {
	if d.IsDir() {
		return false, path == "." || !(strings.HasPrefix(d.Name(), ".") || path == "perfbench")
	}
	name := d.Name()
	return strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum", false
}

// treeDigest hashes the paths and contents of the regular files under
// root in lexical order. filter, when set, picks files and directories.
func treeDigest(fsys fs.FS, root string, filter func(string, fs.DirEntry) (bool, bool)) (string, error) {
	h := sha256.New()
	err := fs.WalkDir(fsys, root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if filter != nil {
			keep, descend := filter(path, d)
			if d.IsDir() && !descend {
				return fs.SkipDir
			}
			if !keep {
				return nil
			}
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := fs.ReadFile(fsys, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// recordedDigests pins each workload's pass output at one seed, so a
// change to what the program computes fails the benchmark at that seed.
type recordedDigests struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// recorded is digests.json, decoded once at start-up.
var recorded = func() recordedDigests {
	var r recordedDigests
	data, err := benchFiles.ReadFile("digests.json")
	if err == nil {
		err = json.Unmarshal(data, &r)
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err)) // embedded at build time
	}
	return r
}()

// digestFor returns the recorded output digest of a workload at seed,
// or "" when none is recorded.
func (r recordedDigests) digestFor(workload string, seed uint64) string {
	if seed != r.Seed {
		return ""
	}
	return r.Digests[workload]
}

// compareCmd prints two stamped results side by side, refusing when
// their stamps differ in anything but the commit.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := reps[0], reps[1]
	if diff := stampDiff(a.Stamp, b.Stamp); len(diff) > 0 {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: stamps differ in %s\n", strings.Join(diff, ", "))
		return 2
	}
	fmt.Fprintf(stdout, "%s seed=%d: commit %s vs %s\n", a.Stamp.Workload, a.Stamp.Seed, a.Stamp.Commit, b.Stamp.Commit)
	for _, name := range sortedKeys(a.Result.Metrics) {
		va, vb := a.Result.Metrics[name], b.Result.Metrics[name]
		fmt.Fprintf(stdout, "%-32s %14.6g %14.6g %+8.2f%% %s\n", name, va.Value, vb.Value,
			100*ratio(vb.Value-va.Value, va.Value), va.Unit)
	}
	return 0
}

// stampDiff names the fields, other than Commit, in which a and b differ.
func stampDiff(a, b stamp) []string {
	fields := []struct {
		name string
		same bool
	}{
		{"workload", a.Workload == b.Workload},
		{"seed", a.Seed == b.Seed},
		{"seconds", a.Seconds == b.Seconds},
		{"trace", a.Trace == b.Trace},
		{"nproc", a.NProc == b.NProc},
		{"gomaxprocs", a.GOMAXPROCS == b.GOMAXPROCS},
		{"go_version", a.GoVersion == b.GoVersion},
		{"bench", a.Bench == b.Bench},
	}
	var diff []string
	for _, f := range fields {
		if !f.same {
			diff = append(diff, f.name)
		}
	}
	return diff
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
