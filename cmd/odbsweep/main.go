// Command odbsweep runs a warehouse × processor campaign and prints a
// metrics table per configuration — the raw data behind the paper's
// Figures 2-16. All runs go through the campaign runner: one bounded
// worker pool schedules every measurement point and tuner probe, a live
// progress line tracks the campaign on stderr, and -checkpoint/-resume
// make interrupted campaigns restartable (Ctrl-C is caught so the
// checkpoint stays valid).
//
// Client counts: -c 0 (the default) auto-tunes every point to the
// paper's ≥90% CPU-utilization target through the campaign runner's
// warm-started, memoized search. (Earlier versions silently fell back
// to a static heuristic for -c 0; use -heuristic for that behaviour.)
// A positive -c pins a fixed client count.
//
// Output: aligned text by default, -csv for CSV, -json for one JSON
// object per point; -events appends a machine-readable campaign event
// log. -listen turns on the campaign flight recorder and serves it over
// HTTP while the campaign runs: /metrics (OpenMetrics gauges plus
// merged per-transaction-type latency histograms), /timeline (per-point
// sampled timelines) and /progress (live point/probe counters). With
// -checkpoint, a run manifest (config, seed, provenance) is written
// next to the checkpoint file at campaign start and completion.
//
// -profile turns on the cycle-attribution profiler: every point runs
// under system.Run with WithProfiler, per-point profiles persist in the
// checkpoint (when one is configured), profiles are served on /profile
// alongside -listen, and after the campaign each processor lane prints
// the attribution shift across the cached-to-scaled pivot — the
// smallest-W profile diffed against the largest-W one. -profiledir
// additionally writes each point's profile JSON to a directory for
// offline odbprof analysis.
//
// -spans turns on the per-transaction span tracer the same way: every
// point runs under system.Run with WithSpans, per-point trace dumps
// persist in the checkpoint, the store is served on /traces alongside
// -listen, and after the campaign each processor lane prints the
// wait-state shift across the pivot. -spandir writes each point's dump
// JSON to a directory for offline odbspan analysis.
//
// -qstats turns on the queueing observatory: every point runs under
// system.Run with WithQueueStats, per-point station reports persist in
// the checkpoint, the store is served on /bottlenecks alongside
// -listen, and after the campaign each processor lane prints the
// bottleneck-shift table across the warehouse sweep. -qstatsdir writes
// each point's report JSON to a directory for offline odbq analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"odbscale/cmd/internal/cli"
	"odbscale/cmd/internal/live"
	"odbscale/internal/engine"
	"odbscale/internal/experiment"
	"odbscale/internal/observe"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

func main() {
	ws := flag.String("w", "10,25,50,100,200,300,500,800", "warehouse counts")
	ps := flag.String("p", "4", "processor counts")
	clients := flag.Int("c", 0, "fixed client count (0 = auto-tune each point to the ≥90% utilization target via the campaign runner; was: static heuristic)")
	heuristic := flag.Bool("heuristic", false, "with -c 0, use the static client heuristic instead of the tuner (the old -c 0 behaviour)")
	txns := flag.Int("txns", 2400, "measured transactions per point")
	tuneTxns := flag.Int("tunetxns", 1200, "measured transactions per tuner probe")
	seed := flag.Int64("seed", 1, "random seed")
	machine := flag.String("machine", "xeon", "platform: xeon or itanium2")
	engineName := flag.String("engine", engine.DefaultName,
		fmt.Sprintf("storage engine: %s", strings.Join(engine.Names(), " or ")))
	par := flag.Int("par", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	run := cli.CampaignFlags(flag.CommandLine)
	listen := flag.String("listen", "", "serve the live campaign flight recorder on this address (/metrics /timeline /progress)")
	profileFlag := flag.Bool("profile", false, "run every point under the cycle-attribution profiler and print the attribution shift across the cached-to-scaled pivot")
	profileDir := flag.String("profiledir", "", "with -profile, write each point's profile JSON into this directory")
	spansFlag := flag.Bool("spans", false, "run every point under the span tracer and print the wait-state shift across the pivot")
	spanDir := flag.String("spandir", "", "with -spans, write each point's trace dump JSON into this directory")
	qstatsFlag := flag.Bool("qstats", false, "run every point under the queueing observatory and print the bottleneck-shift table across the sweep")
	qstatsDir := flag.String("qstatsdir", "", "with -qstats, write each point's station report JSON into this directory")
	csv := flag.Bool("csv", false, "CSV output")
	jsonOut := flag.Bool("json", false, "JSON output (one object per point)")
	flag.Parse()

	if _, ok := engine.Lookup(*engineName); !ok {
		log.Fatalf("unknown engine %q (have %s)", *engineName, strings.Join(engine.Names(), ", "))
	}
	mc, err := cli.Machine(*machine)
	if err != nil {
		log.Fatalf("unknown -machine %q (want xeon or itanium2)", *machine)
	}
	warehouses, processors := cli.ParseInts(*ws, "integer list"), cli.ParseInts(*ps, "integer list")
	spec := experiment.DefaultSpec(warehouses, processors)
	spec.Machine = mc
	spec.Engine = *engineName
	spec.Seed = *seed
	spec.MeasureTxns = *txns
	spec.TuneTxns = *tuneTxns
	spec.AutoTune = *clients == 0 && !*heuristic
	spec.Clients = *clients
	spec.Parallelism = *par

	var (
		profiles *observe.Artifact[*profile.Profile]
		spans    *observe.Artifact[*txtrace.Dump]
		stations *observe.Artifact[*qstats.Report]
		dirs     []func()
	)
	if *profileFlag || *profileDir != "" {
		profiles = observe.Profiles()
		spec.Observe = append(spec.Observe, profiles)
		dirs = append(dirs, dirOf(profiles, *profileDir, "profiles"))
	}
	if *spansFlag || *spanDir != "" {
		spans = observe.Spans(txtrace.Config{})
		spec.Observe = append(spec.Observe, spans)
		dirs = append(dirs, dirOf(spans, *spanDir, "trace dumps"))
	}
	if *qstatsFlag || *qstatsDir != "" {
		stations = observe.QStats()
		spec.Observe = append(spec.Observe, stations)
		dirs = append(dirs, dirOf(stations, *qstatsDir, "station reports"))
	}

	if *listen != "" {
		flight := telemetry.NewCampaignRecorder(telemetry.Config{})
		spec.Flight = flight
		endpoints := "/metrics /timeline /progress"
		var extra []live.Endpoint
		for _, k := range spec.Observe {
			path, write := k.Endpoint()
			extra = append(extra, live.Endpoint{Path: path, Write: write})
			endpoints += " " + path
		}
		srv, err := live.Serve(*listen, flight, extra...)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("campaign flight recorder on http://%s (%s)", srv.Addr(), endpoints)
	}

	res := run.Run(spec)

	if *csv {
		fmt.Println("w,p,c,engine,tps,ipx,useripx,osipx,cpi,usercpi,oscpi,mpi,usermpi,osmpi,util,osshare,readkb,writekb,logkb,ctxsw,bustime,busutil,cohershare,bufferhit,diskutil,writeamp,readamp,spaceamp,writestalls")
	}
	enc := json.NewEncoder(os.Stdout)
	for _, p := range processors {
		for _, m := range res.Series(p) {
			switch {
			case *jsonOut:
				if err := enc.Encode(m); err != nil {
					log.Fatal(err)
				}
			case *csv:
				fmt.Printf("%d,%d,%d,%s,%.1f,%.0f,%.0f,%.0f,%.3f,%.3f,%.3f,%.5f,%.5f,%.5f,%.3f,%.3f,%.2f,%.2f,%.2f,%.2f,%.1f,%.3f,%.4f,%.4f,%.3f,%.3f,%.3f,%.3f,%.4f\n",
					m.Warehouses, m.Processors, m.Clients, m.Engine, m.TPS, m.IPX, m.UserIPX, m.OSIPX,
					m.CPI, m.UserCPI, m.OSCPI, m.MPI, m.UserMPI, m.OSMPI, m.CPUUtil, m.OSShare,
					m.ReadKBPerTxn, m.WriteKBPerTxn, m.LogKBPerTxn, m.CtxSwitchPerTxn,
					m.BusTime, m.BusUtil, m.CoherenceShare, m.BufferHitRatio, m.DiskUtil,
					m.WriteAmp, m.ReadAmp, m.SpaceAmp, m.WriteStallsPerTxn)
			default:
				fmt.Println(m)
			}
		}
	}

	for _, write := range dirs {
		write()
	}
	if len(warehouses) < 2 {
		return
	}
	if profiles != nil {
		emitPivot(profiles, "attribution shift", warehouses, processors)
	}
	if spans != nil {
		emitPivot(spans, "wait-state shift", warehouses, processors)
	}
	if stations != nil {
		emitQStats(stations.Store, warehouses, processors)
	}
}

// dirOf creates an observer's -*dir when one is set and returns the
// writer of every point's artifact into it as <point>.json, for
// offline analysis.
func dirOf[T any](k *observe.Artifact[T], dir, what string) func() {
	if dir == "" {
		return func() {}
	}
	d := cli.MkDir(dir)
	return func() {
		keys := k.Store.Keys()
		for _, key := range keys {
			name := strings.NewReplacer("=", "", ",", "-").Replace(key)
			if err := d.Write(name, func(w io.Writer) error { return k.Encode(k.Store.Get(key), w) }); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("wrote %d %s to %s", len(keys), what, dir)
	}
}

// emitPivot prints, for each processor lane, the kind's diff across the
// cached-to-scaled pivot — the smallest-W point's artifact against the
// largest-W one's — under the heading "<shift> across the pivot".
func emitPivot[T any](k *observe.Artifact[T], shift string, warehouses, processors []int) {
	keys := k.Store.Keys()
	for _, p := range processors {
		lo := telemetry.PointName(warehouses[0], p)
		hi := telemetry.PointName(warehouses[len(warehouses)-1], p)
		if !slices.Contains(keys, lo) || !slices.Contains(keys, hi) {
			continue
		}
		fmt.Printf("\n%s across the pivot, P=%d (%s -> %s):\n", shift, p, lo, hi)
		if err := k.Diff(os.Stdout, k.Store.Get(lo), k.Store.Get(hi)); err != nil {
			log.Fatal(err)
		}
	}
}

// emitQStats prints the bottleneck-shift table — wait demand per
// station down the warehouse sweep — for each processor lane.
func emitQStats(st *observe.Store[*qstats.Report], warehouses, processors []int) {
	for _, p := range processors {
		var reports []*qstats.Report
		for _, w := range warehouses {
			if r := st.Get(telemetry.PointName(w, p)); r != nil {
				reports = append(reports, r)
			}
		}
		if len(reports) < 2 {
			continue
		}
		fmt.Println()
		if err := qstats.WriteShiftTable(os.Stdout, reports); err != nil {
			log.Fatal(err)
		}
	}
}
