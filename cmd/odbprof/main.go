// Command odbprof drives the cycle-attribution profiler: capture a
// profile from a simulated run, render it as a per-phase CPI-breakdown
// table, folded flame-graph stacks or pprof-style text, and diff two
// profiles to expose attribution shifts (e.g. across the paper's
// cached-to-scaled pivot).
//
// Usage:
//
//	odbprof capture [-w warehouses] [-c clients] [-p processors]
//	                [-seed n] [-machine xeon|itanium2] [-txns n]
//	                [-o file] [-report]
//	odbprof report <profile.json>
//	odbprof folded <profile.json>
//	odbprof text   <profile.json>
//	odbprof diff   <a.json> <b.json>
//
// capture runs the simulator with profiling on and writes the profile
// as JSON (stdout with -o -); report prints the Figure 12-style event
// decomposition per engine phase; folded emits "txn;phase;mode cycles"
// lines for standard flame-graph tooling; text prints a flat pprof-like
// listing; diff compares two captured profiles frame by frame, largest
// attribution shift first.
package main

import (
	"fmt"

	"odbscale/cmd/internal/cli"
	"odbscale/internal/observe"
	"odbscale/internal/profile"
	"odbscale/internal/system"
)

var tool = cli.Tool[*profile.Profile]{
	Kind: observe.Profiles(), Noun: "profile",
	Report: (*profile.Profile).WriteCPITable, ReportName: "CPI-breakdown table",
	Summary: func(p *profile.Profile, m system.Metrics) string {
		return fmt.Sprintf("%d txns, CPI=%.4f, L3 share=%.1f%%", m.Txns, p.CPI(), p.L3Share()*100)
	},
}

func main() {
	cli.Main("odbprof",
		cli.Verb{Name: "capture", Run: tool.Capture},
		cli.Verb{Name: "report", Run: tool.Render(tool.Report)},
		cli.Verb{Name: "folded", Run: tool.Render((*profile.Profile).WriteFolded)},
		cli.Verb{Name: "text", Run: tool.Render((*profile.Profile).WriteText)},
		cli.Verb{Name: "diff", Run: tool.Diff})
}
