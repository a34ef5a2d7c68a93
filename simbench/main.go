// Command simbench is the repository's end-to-end benchmark of the
// simulator's own host cost. It drives the simulator through its public
// entry points (system.Run for single points, campaign.Runner for
// sweeps), times host wall clock end to end, checks every simulated
// run's output, and in a traced run folds a CPU profile by package and
// times each layer from outside. See README.md for the workloads and
// metrics.
//
// Usage:
//
//	simbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"odbscale/internal/qstats"
	"odbscale/internal/system"
)

// setupReps is how many times a run repeats the set-up probes; setup_s
// is their median.
const setupReps = 5

// minUnits is the fewest units the timed phase of the untraced run
// runs, however short --seconds is, so its medians have at least this
// many samples; each of the traced run's two phases runs at least
// minTracedUnits.
const (
	minUnits       = 3
	minTracedUnits = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one benchmark run's output and failure accounting.
type bench struct {
	w        workload
	seed     int64
	out      *bufio.Writer
	attempts int
	failures []error
	// digests maps a point label to its Metrics digest; a repeat of the
	// same simulated point must reproduce it.
	digests map[string]string
	metrics map[string]metric
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) fail(err error) {
	b.failures = append(b.failures, err)
}

// record folds a unit's runs, failures and point digests into the run.
func (b *bench) record(phase string, u unitResult) {
	b.attempts += u.runs
	b.failures = append(b.failures, u.failures...)
	for _, pt := range u.points {
		d := digest(pt.m)
		key := pt.label()
		if prev, ok := b.digests[key]; !ok {
			b.digests[key] = d
			fmt.Fprintf(b.out, "point %-32s digest %s  %v\n", key, d, pt.m)
		} else if prev != d {
			b.fail(fmt.Errorf("%s: %s digest %s differs from %s", phase, key, d, prev))
		}
	}
	fmt.Fprintf(b.out, "unit  %-8s wall %.4fs runs %d peak-rss p50 %.1fMB\n", phase, u.wall.Seconds(), u.runs, median(u.peaksMB))
}

// timed runs units until seconds have passed and at least min have
// run, unit i with seed variant i. Each unit starts as a fresh
// simulator process would (see freshProcess).
func (b *bench) timed(ctx context.Context, phase string, r runner, seconds float64, min int) ([]unitResult, error) {
	var units []unitResult
	start := time.Now()
	for i := 0; i < min || time.Since(start).Seconds() < seconds; i++ {
		freshProcess()
		u, err := r.unit(ctx, unitSeed(b.seed, i))
		if err != nil {
			return nil, err
		}
		b.record(phase, u)
		units = append(units, u)
	}
	return units, nil
}

// setup runs the set-up probes setupReps times and returns the median
// of the per-rep totals and, per warehouse count, the median of that
// W's per-rep set-up time (summed over its processor counts).
func (b *bench) setup(ctx context.Context) (float64, map[int]float64) {
	cfgs := b.w.setupConfigs(unitSeed(b.seed, 0))
	var totals []float64
	perW := map[int][]float64{}
	for rep := 0; rep < setupReps; rep++ {
		var total float64
		byW := map[int]float64{}
		for _, cfg := range cfgs {
			freshProcess()
			t0 := time.Now()
			m, err := system.Run(ctx, cfg)
			s := time.Since(t0).Seconds()
			b.attempts++
			if err == nil {
				err = checkTxns(cfg, m)
			}
			if err != nil {
				b.fail(fmt.Errorf("set-up: %w", err))
			}
			total += s
			byW[cfg.Warehouses] += s
		}
		totals = append(totals, total)
		for _, w := range b.w.ws {
			perW[w] = append(perW[w], byW[w])
		}
	}
	med := map[int]float64{}
	for w, v := range perW {
		med[w] = median(v)
	}
	return median(totals), med
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// walls returns each unit's wall time and simulated MIPS, and every
// simulator run's peak RSS.
func walls(units []unitResult) (wall, mips, rss []float64) {
	for _, u := range units {
		s := u.wall.Seconds()
		wall = append(wall, s)
		mips = append(mips, u.instr/s/1e6)
		rss = append(rss, u.peaksMB...)
	}
	return wall, mips, rss
}

// freshProcess collects the heap and returns freed memory to the OS,
// so the next unit neither pays for the previous unit's garbage nor
// inherits its resident set.
func freshProcess() {
	debug.FreeOSMemory()
	resetPeakRSS()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (writing 5 to clear_refs resets VmHWM, Linux 4.0+). Where that is
// refused, peakRSSMB reads the process-lifetime peak instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark since the last
// resetPeakRSS, falling back to getrusage's process maximum.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts describes the machine and build the numbers come from, so
// results from different hosts cannot be mistaken for an A/B pair.
func hostFacts() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown (built without VCS metadata)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// measure is the untraced run: set-up probes, then the workload timed
// for seconds, reporting the end-to-end metrics.
func (b *bench) measure(ctx context.Context, seconds float64) error {
	setup, _ := b.setup(ctx)
	units, err := b.timed(ctx, "measure", runner{w: b.w}, seconds, minUnits)
	if err != nil {
		return err
	}
	wall, mips, rss := walls(units)
	b.set("wall_s", median(wall), "s")
	b.set("setup_s", setup, "s")
	b.set("sim_mips", median(mips), "MIPS")
	b.set("peak_rss_mb", median(rss), "MB")
	fmt.Fprintf(b.out, "measured %d units; wall_s is the median unit wall time\n", len(units))
	return nil
}

// traced is the traced run: the workload untraced and then under a CPU
// profile with queueing statistics attached, half of seconds each,
// followed by the layer probes. It reports the per-layer metrics.
func (b *bench) traced(ctx context.Context, seconds float64) error {
	_, setupW := b.setup(ctx)
	for _, w := range []int{10, 100, 200, 400} {
		b.set(fmt.Sprintf("system.setup_s.w%d", w), setupW[w], "s")
	}

	plain, err := b.timed(ctx, "plain", runner{w: b.w}, seconds/2, minTracedUnits)
	if err != nil {
		return err
	}
	var qcs []*qstats.Collector
	r := runner{w: b.w, observe: func() []system.Option {
		qc := qstats.NewCollector()
		qcs = append(qcs, qc)
		return []system.Option{system.WithQueueStats(qc)}
	}}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	traced, err := b.timed(ctx, "traced", r, seconds/2, minTracedUnits)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}

	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return err
	}
	for pkg, share := range foldShares(samples) {
		b.set("host_share."+pkg, share, "fraction")
	}
	plainWall, _, _ := walls(plain)
	tracedWall, _, _ := walls(traced)
	b.set("trace.overhead", median(tracedWall)/median(plainWall), "ratio")

	focus := traced[0].focus
	if focus == nil || len(qcs) == 0 || qcs[0].Report() == nil {
		return fmt.Errorf("traced run produced no focus point")
	}
	b.modelMetrics(focus.m, qcs[0].Report())

	if b.w.sweep {
		st, err := classifySpans(traced[0].spans, sweepTune, sweepMeasure)
		if err != nil {
			b.fail(err)
		}
		b.set("campaign.probe_runs", float64(st.probes), "count")
		b.set("campaign.measure_runs", float64(st.measures), "count")
		b.set("campaign.tune_share", st.tuneShare(), "fraction")
		b.set("campaign.probe_s_p50", st.probeP50.Seconds(), "s")
	} else {
		// A point workload runs no campaign.
		b.set("campaign.probe_runs", 0, "count")
		b.set("campaign.measure_runs", 0, "count")
		b.set("campaign.tune_share", 0, "fraction")
		b.set("campaign.probe_s_p50", 0, "s")
	}

	// Layer probes at the focus point.
	cfg := focus.cfg
	refs, m, err := captureRefs(ctx, cfg)
	b.attempts++
	if err != nil {
		return err
	}
	if d, want := digest(m), digest(focus.m); d != want {
		b.fail(fmt.Errorf("reference capture moved %s: digest %s, want %s", focus.label(), d, want))
	}
	cacheProbe(cfg, refs, b.set)
	cpuProbe(cfg.Seed, refs, b.set)
	xrandProbe(cfg.Seed, b.set)
	odbProbe(cfg, b.set)
	simProbe(b.set)
	return nil
}

// modelMetrics reports simulated-time statistics of the focus point. A
// simulator-only speed-up must leave every one of them identical.
func (b *bench) modelMetrics(m system.Metrics, rep *qstats.Report) {
	b.set("model.tps", m.TPS, "txn/s")
	b.set("model.cpi", m.CPI, "cycles/instr")
	b.set("model.l3_mpi", m.MPI, "miss/instr")
	b.set("model.buffer_hit_ratio", m.BufferHitRatio, "fraction")
	b.set("model.bus_util", m.BusUtil, "fraction")
	b.set("model.disk_util", m.DiskUtil, "fraction")
	for _, st := range rep.Stations {
		if st.Servers > 0 {
			b.set("qstats."+st.Name+".util", st.Utilization, "fraction")
		}
	}
	bottleneck := -1
	for id := 0; id < qstats.NumStations; id++ {
		if qstats.StationName(id) == rep.Bottleneck {
			bottleneck = id
		}
	}
	b.set("model.bottleneck", float64(bottleneck), "station")
	fmt.Fprintf(b.out, "model bottleneck station %d = %q\n", bottleneck, rep.Bottleneck)
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "simbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}

	out := bufio.NewWriter(os.Stdout)
	b := &bench{w: w, seed: *seed, out: out, digests: map[string]string{}, metrics: map[string]metric{}}
	fmt.Fprintln(out, hostFacts())
	fmt.Fprintf(out, "workload %s seed=%d seconds=%g trace=%d: %s\n", w.name, *seed, *seconds, *traceFlag, w.why)
	fmt.Fprintln(out, "model: unvalidated; the repository holds no hardware reference for the simulated machine, so no error figure is given")

	ctx := context.Background()
	var err error
	if *traceFlag == 1 {
		err = b.traced(ctx, *seconds)
	} else {
		err = b.measure(ctx, *seconds)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		// JSON has no NaN or Inf; such a metric is a failure, reported as 0.
		if m := b.metrics[n]; math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail(fmt.Errorf("metric %s is %v", n, m.Value))
			b.set(n, 0, m.Unit)
		}
	}
	for _, f := range b.failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	fmt.Fprintf(out, "failed_frac %.6f (%d failures in %d simulator runs)\n",
		float64(len(b.failures))/float64(b.attempts), len(b.failures), b.attempts)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-34s %16.6f %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	failed := len(b.failures)
	if failed > b.attempts {
		failed = b.attempts
	}
	res := result{Correct: len(b.failures) == 0, Attempted: b.attempts, Failed: failed, Metrics: b.metrics}
	data, err := json.Marshal(res)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(data))
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
