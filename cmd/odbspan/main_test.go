package main

import (
	"strings"
	"testing"

	"odbscale/cmd/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "odbspan", main) }

const small = "-c 4 -p 1 -txns 100 -warmup 50 -seed 1"

// TestGolden pins every verb's output, the files capture writes, each
// verb's -h and the error exits.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []clitest.Case{
		{Name: "capture-stdout", Args: "capture -w 10 " + small + " -head 25 -tailk 1", Save: "a.json"},
		{Name: "capture-o-report", Args: "capture -w 25 " + small + " -head 25 -tailk 1 -o b.json -report", Files: []string{"b.json"}},
		{Name: "report", Args: "report a.json"},
		{Name: "report-stdin", Args: "report -", Stdin: "b.json"},
		{Name: "export", Args: "export a.json"},
		{Name: "top", Args: "top -n 5 a.json"},
		{Name: "top-default", Args: "top b.json"},
		{Name: "diff", Args: "diff a.json b.json"},
		{Name: "capture-h", Args: "capture -h"},
		{Name: "report-h", Args: "report -h"},
		{Name: "export-h", Args: "export -h"},
		{Name: "top-h", Args: "top -h"},
		{Name: "diff-h", Args: "diff -h"},
		{Name: "no-verb", Args: ""},
		{Name: "unknown-verb", Args: "flame a.json"},
		{Name: "export-two-files", Args: "export a.json b.json"},
		{Name: "top-no-file", Args: "top -n 5"},
		{Name: "diff-one-file", Args: "diff a.json"},
		{Name: "unknown-machine", Args: "capture -machine sparc " + small},
	} {
		c.Run(t, dir)
	}
}

// TestLoadRejectsNullAndTrailingData checks every verb reading a file
// fails on a null artifact and on data after the JSON value.
func TestLoadRejectsNullAndTrailingData(t *testing.T) {
	clitest.Rejects(t, "report BAD", "export BAD", "top BAD", "top -n 5 BAD", "diff BAD BAD")
}

// TestTopNonPositive checks top -n 0 and -n -1 list no traces, printing
// only the header, instead of panicking.
func TestTopNonPositive(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		stdout, stderr, code := clitest.Exec(t, t.TempDir(), strings.NewReader("{}"), "top", "-n", n, "-")
		if code != 0 || !strings.HasPrefix(strings.TrimSpace(string(stdout)), "seq") || strings.Count(string(stdout), "\n") != 1 {
			t.Errorf("top -n %s: exit %d, stdout %q\n%s", n, code, stdout, stderr)
		}
	}
}
