// Command odbspan drives the per-transaction span tracer: capture a
// deterministic sample of span trees from a simulated run, render the
// wait-state breakdown report (per-type latency quantiles decomposed
// into cpu / lock / io / busy / queue shares plus the slowest
// exemplar's critical path), export Chrome trace-event JSON for
// chrome://tracing or Perfetto, list the slowest sampled transactions,
// and diff two dumps to expose wait-state shifts across configurations.
//
// Usage:
//
//	odbspan capture [-w warehouses] [-c clients] [-p processors]
//	                [-seed n] [-machine xeon|itanium2] [-txns n]
//	                [-warmup n] [-head n] [-tailk n] [-o file] [-report]
//	odbspan report <spans.json>
//	odbspan export <spans.json>
//	odbspan top    [-n count] <spans.json>
//	odbspan diff   <a.json> <b.json>
//
// capture runs the simulator with span tracing on and writes the dump
// as JSON (stdout with -o -); report prints the wait-state table;
// export emits Chrome trace-event JSON; top lists the N slowest
// retained traces with their critical paths; diff compares two dumps
// per transaction type, exiting 0 always — wait-state shifts are
// findings, not failures.
package main

import (
	"flag"
	"fmt"
	"io"

	"odbscale/cmd/internal/cli"
	"odbscale/internal/observe"
	"odbscale/internal/system"
	"odbscale/internal/txtrace"
)

var tool = cli.Tool[*txtrace.Dump]{
	Kind: observe.Spans(txtrace.Config{}), Noun: "trace dump",
	Report: (*txtrace.Dump).WriteReport, ReportName: "wait-state report",
	Summary: func(d *txtrace.Dump, m system.Metrics) string {
		return fmt.Sprintf("%d txns measured, %d traces retained", m.Txns, len(d.Traces))
	},
	Flags: func(fs *flag.FlagSet) func() *observe.Artifact[*txtrace.Dump] {
		head := fs.Int("head", txtrace.DefaultHeadEvery, "head-sample every Nth measured transaction (-1 disables)")
		tailk := fs.Int("tailk", txtrace.DefaultTailK, "keep the K slowest transactions per type (-1 disables)")
		return func() *observe.Artifact[*txtrace.Dump] {
			return observe.Spans(txtrace.Config{HeadEvery: *head, TailK: *tailk})
		}
	},
}

func main() {
	cli.Main("odbspan",
		cli.Verb{Name: "capture", Run: tool.Capture},
		cli.Verb{Name: "report", Run: tool.Render(tool.Report)},
		cli.Verb{Name: "export", Run: tool.Render((*txtrace.Dump).WriteChromeTrace)},
		cli.Verb{Name: "top", Run: top},
		cli.Verb{Name: "diff", Run: tool.Diff})
}

// top lists the N slowest retained traces with their critical paths.
func top(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	n := fs.Int("n", 10, "number of traces to list")
	fs.Parse(args)
	tool.Render(func(d *txtrace.Dump, w io.Writer) error { return d.WriteTop(w, *n) })(fs.Args())
}
