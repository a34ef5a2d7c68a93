package main

import (
	"testing"

	"odbscale/cmd/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "odbprof", main) }

const small = "-c 4 -p 1 -txns 100 -warmup 50 -seed 1"

// TestGolden pins every verb's output, the files capture writes, each
// verb's -h and the error exits.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []clitest.Case{
		{Name: "capture-stdout", Args: "capture -w 10 " + small, Save: "a.json"},
		{Name: "capture-o-report", Args: "capture -w 25 " + small + " -o b.json -report", Files: []string{"b.json"}},
		{Name: "report", Args: "report a.json"},
		{Name: "report-stdin", Args: "report -", Stdin: "b.json"},
		{Name: "folded", Args: "folded a.json"},
		{Name: "text", Args: "text a.json"},
		{Name: "diff", Args: "diff a.json b.json"},
		{Name: "capture-h", Args: "capture -h"},
		{Name: "report-h", Args: "report -h"},
		{Name: "folded-h", Args: "folded -h"},
		{Name: "text-h", Args: "text -h"},
		{Name: "diff-h", Args: "diff -h"},
		{Name: "no-verb", Args: ""},
		{Name: "unknown-verb", Args: "flame a.json"},
		{Name: "report-two-files", Args: "report a.json b.json"},
		{Name: "diff-one-file", Args: "diff a.json"},
		{Name: "missing-file", Args: "text nope.json"},
		{Name: "unknown-machine", Args: "capture -machine sparc " + small},
	} {
		c.Run(t, dir)
	}
}

// TestLoadRejectsNullAndTrailingData checks every verb reading a file
// fails on a null artifact and on data after the JSON value.
func TestLoadRejectsNullAndTrailingData(t *testing.T) {
	clitest.Rejects(t, "report BAD", "folded BAD", "text BAD", "diff BAD BAD")
}
