package main

import (
	"testing"

	"odbscale/cmd/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "odbsweep", main) }

// TestGolden pins a sweep with every observer and artifact directory
// on, the flag listing and the error exits.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []clitest.Case{
		{Name: "observers", Args: "-w 10,25 -p 1 -c 4 -txns 100 -quiet -profile -spans -qstats -profiledir prof -spandir spans -qstatsdir qstats",
			Files: []string{"prof", "spans", "qstats"}},
		{Name: "h", Args: "-h"},
		{Name: "unknown-machine", Args: "-w 10 -p 1 -c 4 -txns 100 -quiet -machine sparc"},
		{Name: "bad-list", Args: "-w 10,x -p 1 -c 4 -txns 100 -quiet"},
	} {
		c.Run(t, dir)
	}
}
