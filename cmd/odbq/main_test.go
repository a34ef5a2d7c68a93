package main

import (
	"os"
	"path/filepath"
	"testing"

	"odbscale/cmd/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "odbq", main) }

const small = "-c 4 -p 1 -txns 100 -warmup 50 -seed 1"

// TestGolden pins every verb's output, the files report and sweep
// write, each verb's -h and the error exits.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "sweep"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range []clitest.Case{
		{Name: "report-o-check", Args: "report -w 10 " + small + " -o a.json -check", Files: []string{"a.json"}},
		{Name: "report-o-stdout", Args: "report -w 25 " + small + " -o -", Save: "b.json"},
		{Name: "report-lsm", Args: "report -w 10 " + small + " -engine lsm"},
		{Name: "rank", Args: "rank a.json"},
		{Name: "rank-stdin", Args: "rank -", Stdin: "b.json"},
		{Name: "diff", Args: "diff a.json b.json"},
		{Name: "sweep", Args: "sweep -w 10,25 -p 1 -engines btree,lsm -txns 100 -warmup 50 -json sweep", Files: []string{"sweep"}},
		{Name: "report-h", Args: "report -h"},
		{Name: "rank-h", Args: "rank -h"},
		{Name: "diff-h", Args: "diff -h"},
		{Name: "sweep-h", Args: "sweep -h"},
		{Name: "no-verb", Args: ""},
		{Name: "unknown-verb", Args: "top a.json"},
		{Name: "rank-two-files", Args: "rank a.json b.json"},
		{Name: "diff-one-file", Args: "diff a.json"},
		{Name: "unknown-machine", Args: "report -machine sparc " + small},
		{Name: "sweep-unknown-machine", Args: "sweep -w 10 -p 1 -machine sparc"},
	} {
		c.Run(t, dir)
	}
}

// TestLoadRejectsNullAndTrailingData checks every verb reading a file
// fails on a null artifact and on data after the JSON value.
func TestLoadRejectsNullAndTrailingData(t *testing.T) {
	clitest.Rejects(t, "rank BAD", "diff BAD BAD")
}

// TestSweepCreatesJSONDir checks sweep -json creates a missing nested
// directory instead of failing after the first point's run.
func TestSweepCreatesJSONDir(t *testing.T) {
	dir := t.TempDir()
	_, stderr, code := clitest.Exec(t, dir, nil,
		"sweep", "-w", "10", "-p", "1", "-engines", "btree", "-txns", "100", "-warmup", "50", "-json", "new/nested")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "new", "nested", "btree-w10-p1.json")); err != nil {
		t.Fatal(err)
	}
}
