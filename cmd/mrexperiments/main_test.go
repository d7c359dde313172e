package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/run_all.sha256 from the current -run all output")

// TestRunAllGolden pins every paper artifact byte for byte: the output
// of `mrexperiments -run all`, through the command's own run, must hash
// to the recorded SHA-256. A diff here means a figure, table or
// extension study moved; rewrite the file with -update only when that
// change is intended.
func TestRunAllGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "all"}, &out, &errOut); code != 0 {
		t.Fatalf("-run all exited %d: %s", code, errOut.String())
	}
	got := fmt.Sprintf("%x  %d lines\n", sha256.Sum256(out.Bytes()), strings.Count(out.String(), "\n"))
	path := filepath.Join("testdata", "run_all.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("-run all output moved:\ngot  %swant %s", got, want)
	}
}

// TestRunRejectsBadInput: bad flags and names exit 2 with a message.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "fig99"},
		{"-tuner", "nope"},
		{"-no-such-flag"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || errOut.Len() == 0 {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a message", args, code, errOut.String())
		}
	}
}
