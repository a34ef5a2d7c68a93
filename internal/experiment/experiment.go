// Package experiment assembles the paper's evaluation from campaign
// results: the tuned client counts of Table 1, the data series behind
// Figures 2-19, and the pivot-point fits of Figures 17/18 and Table 5.
//
// Campaigns themselves run through the campaign package; DefaultSpec
// carries the paper's campaign settings, and every assembler reads the
// *campaign.Result the run returns.
package experiment

import (
	"odbscale/internal/campaign"
	"odbscale/internal/system"
)

// DefaultSpec returns the paper-equivalent campaign over the given
// warehouse and processor axes on the Xeon platform: every point tuned
// to at least 90% CPU utilization with warm-started searches.
func DefaultSpec(ws, ps []int) campaign.Spec {
	return campaign.Spec{
		Machine:     system.XeonQuad(),
		Tuning:      system.DefaultTuning(),
		Seed:        1,
		WarmupTxns:  600,
		MeasureTxns: 2400,
		TuneTxns:    1200,
		TargetUtil:  0.90,
		MinClients:  8,
		MaxClients:  64,
		AutoTune:    true,
		WarmStart:   true,
		Warehouses:  append([]int(nil), ws...),
		Processors:  append([]int(nil), ps...),
	}
}

// StandardWarehouses is the sweep used for the paper's figures; the
// paper's measured range is 10 to 800 with the I/O-bound 1200 point shown
// only in Figure 2.
var StandardWarehouses = []int{10, 25, 50, 100, 150, 200, 300, 400, 500, 650, 800}

// StandardProcessors are the paper's three processor configurations.
var StandardProcessors = []int{1, 2, 4}
