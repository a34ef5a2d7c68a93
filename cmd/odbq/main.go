// Command odbq drives the queueing observatory: run a simulation with
// per-resource service-center accounting on, print the station table
// with the operational-law audit (Little's law N = X·R and the
// utilization law U = X·S, checked per station), rank the stations by
// the queueing delay they impose per transaction, diff two reports to
// expose demand shifts across a knob change, and sweep the warehouse
// axis to table where the primary bottleneck migrates across the
// cached→scaled pivot.
//
// Usage:
//
//	odbq report [-w warehouses] [-c clients] [-p processors] [-seed n]
//	            [-machine xeon|itanium2] [-engine name] [-txns n]
//	            [-warmup n] [-o file] [-check]
//	odbq rank   <report.json>
//	odbq diff   <a.json> <b.json>
//	odbq sweep  [-w list] [-p list] [-engines list] [-txns n] [-seed n]
//	            [-machine xeon|itanium2] [-json dir]
//
// report runs the simulator with WithQueueStats and prints the
// observatory table (-o also writes the report JSON; -check exits 1 if
// any operational-law residual exceeds 1e-6 or the ranking is empty —
// the CI smoke contract). rank prints just the wait-demand ranking of a
// saved report. diff compares two saved reports station by station.
// sweep measures every warehouse × processor × engine combination and
// prints one bottleneck-shift table per (engine, P) lane.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"odbscale/cmd/internal/cli"
	"odbscale/internal/observe"
	"odbscale/internal/qstats"
)

var tool = cli.Tool[*qstats.Report]{Kind: observe.QStats(), Noun: "report"}

func main() {
	cli.Main("odbq",
		cli.Verb{Name: "report", Run: report},
		cli.Verb{Name: "rank", Run: tool.Render(writeRank)},
		cli.Verb{Name: "diff", Run: tool.Diff},
		cli.Verb{Name: "sweep", Run: sweep})
}

// report runs one observed simulation and prints the observatory table.
func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	pt := cli.CaptureFlags(fs)
	engine := fs.String("engine", "", "storage engine (empty = default B-tree)")
	out := fs.String("o", "", "also write the report JSON to this file (- = stdout)")
	check := fs.Bool("check", false, "exit 1 on an operational-law violation or empty ranking")
	fs.Parse(args)

	cfg := pt.Config()
	cfg.Engine = *engine
	r, _ := cli.Run(tool.Kind, "", cfg)
	if *out != "" {
		if err := cli.WritePath(*out, func(w io.Writer) error { return tool.Kind.Encode(r, w) }); err != nil {
			log.Fatal(err)
		}
	}
	if *out != "-" {
		if err := r.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *check {
		if viol := r.Check(1e-6); len(viol) > 0 {
			for _, v := range viol {
				log.Printf("law violation: %s", v)
			}
			os.Exit(1)
		}
		if len(r.Ranking) == 0 {
			log.Fatal("empty bottleneck ranking")
		}
	}
}

// writeRank writes the wait-demand ranking of a report.
func writeRank(r *qstats.Report, w io.Writer) error {
	for i, name := range r.Ranking {
		var d float64
		for j := range r.Stations {
			if r.Stations[j].Name == name {
				d = r.Stations[j].WaitDemandMS
				break
			}
		}
		fmt.Fprintf(w, "%2d. %-10s Dwait=%.5fms\n", i+1, name, d)
	}
	bottleneck := r.Bottleneck
	if bottleneck == "" {
		bottleneck = "none"
	}
	_, err := fmt.Fprintf(w, "bottleneck: %s\n", bottleneck)
	return err
}

// sweep measures every warehouse × processor × engine combination and
// prints one bottleneck-shift table per (engine, P) lane.
func sweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	wList := fs.String("w", "10,50,100,200,300", "comma-separated warehouse counts")
	pList := fs.String("p", "1,4", "comma-separated processor counts")
	engines := fs.String("engines", "btree,lsm", "comma-separated storage engines")
	seed := fs.Int64("seed", 1, "random seed")
	machine := fs.String("machine", "xeon", "platform: xeon or itanium2")
	txns := fs.Int("txns", 2400, "measured transactions per point")
	warmup := fs.Int("warmup", -1, "warm-up transactions (-1 = default)")
	jsonDir := fs.String("json", "", "also write each point's report JSON into this directory")
	fs.Parse(args)

	ws, ps := cli.ParseInts(*wList, "-w list"), cli.ParseInts(*pList, "-p list")
	var dir cli.Dir
	if *jsonDir != "" {
		dir = cli.MkDir(*jsonDir)
	}
	for _, engine := range strings.Split(*engines, ",") {
		engine = strings.TrimSpace(engine)
		for _, p := range ps {
			reports := make([]*qstats.Report, 0, len(ws))
			for _, w := range ws {
				cfg := cli.Point{W: w, P: p, Seed: *seed, Machine: *machine, Txns: *txns, Warmup: *warmup}.Config()
				// The registry's default B-tree is the empty engine name.
				if engine != "btree" {
					cfg.Engine = engine
				}
				r, _ := cli.Run(tool.Kind, "", cfg)
				if dir != "" {
					name := fmt.Sprintf("%s-w%d-p%d", engine, w, p)
					if err := dir.Write(name, func(out io.Writer) error { return tool.Kind.Encode(r, out) }); err != nil {
						log.Fatal(err)
					}
				}
				reports = append(reports, r)
			}
			if err := qstats.WriteShiftTable(os.Stdout, reports); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	}
}
