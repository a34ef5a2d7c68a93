package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"odbscale/internal/campaign"
	"odbscale/internal/system"
)

// workload is one batch job: the simulator runs a unit of work (one
// system.Run, or one campaign.Runner sweep) at a time, and the simulated
// clients form a closed loop inside each run.
type workload struct {
	name   string
	why    string
	engine string
	ws, ps []int
	sweep  bool
}

var workloads = []workload{
	{
		name: "scaled-w200-p4",
		why:  "B-tree engine past the paper's 120-150 W pivot: buffer-cache table and coherence side map do real work",
		ws:   []int{200}, ps: []int{4},
	},
	{
		name:   "cached-w10-p1-lsm",
		why:    "LSM engine, cached, one CPU: bypasses buffer cache, Go maps and snooping; reference synthesis dominates",
		engine: "lsm",
		ws:     []int{10}, ps: []int{1},
	},
	{
		name: "tuned-sweep",
		why:  "auto-tuned campaign over cached to scaled W: tuner probes re-pay machine build and prefill",
		ws:   []int{10, 100, 400}, ps: []int{1, 4},
		sweep: true,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Measurement lengths. Point workloads use the simulator's defaults; the
// sweep uses shorter runs so several sweeps fit in one benchmark run.
const (
	sweepWarmup  = 200
	sweepMeasure = 600
	sweepTune    = 300
)

// seedVariants is how many workload seeds one benchmark seed expands
// into. Successive units of a run cycle through them, so a run's median
// covers several simulated inputs, not one.
const seedVariants = 3

// unitSeed derives the simulator seed of a unit from the benchmark seed.
func unitSeed(seed int64, unit int) int64 {
	return seed*seedVariants + int64(unit%seedVariants)
}

// pointConfig is the system configuration of one point of a point
// workload, or of a sweep point at its heuristic client count.
func (w workload) pointConfig(seed int64, wh, p int) system.Config {
	cfg := system.DefaultConfig(wh, system.HeuristicClients(wh, p), p)
	cfg.Seed = seed
	cfg.Engine = w.engine
	if w.sweep {
		cfg.WarmupTxns, cfg.MeasureTxns = sweepWarmup, sweepMeasure
	}
	return cfg
}

// setupConfigs are the set-up probes: every point of the workload with
// zero warm-up and one measured transaction, which costs machine build
// plus buffer-cache prefill.
func (w workload) setupConfigs(seed int64) []system.Config {
	var out []system.Config
	for _, p := range w.ps {
		for _, wh := range w.ws {
			cfg := w.pointConfig(seed, wh, p)
			cfg.WarmupTxns, cfg.MeasureTxns = 0, 1
			out = append(out, cfg)
		}
	}
	return out
}

// focus is the point the traced run captures references and queueing
// statistics at: the workload's largest W and P.
func (w workload) focus() (wh, p int) {
	return w.ws[len(w.ws)-1], w.ps[len(w.ps)-1]
}

func (w workload) spec(seed int64) campaign.Spec {
	return campaign.Spec{
		Machine:     system.XeonQuad(),
		Tuning:      system.DefaultTuning(),
		Seed:        seed,
		Engine:      w.engine,
		WarmupTxns:  sweepWarmup,
		MeasureTxns: sweepMeasure,
		TuneTxns:    sweepTune,
		TargetUtil:  0.90,
		MinClients:  8,
		MaxClients:  64,
		AutoTune:    true,
		WarmStart:   true,
		Parallelism: 1,
		Warehouses:  w.ws,
		Processors:  w.ps,
	}
}

// point is one measured simulation of a unit.
type point struct {
	cfg system.Config
	m   system.Metrics
}

func (pt point) label() string {
	return fmt.Sprintf("seed=%d W=%d C=%d P=%d", pt.cfg.Seed, pt.cfg.Warehouses, pt.cfg.Clients, pt.cfg.Processors)
}

// span is the host-time record of one system.Run inside a sweep, taken
// by wrapping campaign.Runner.RunFunc.
type span struct {
	w, p, c, txns int
	dur           time.Duration
}

// unitResult is what one unit of work produced.
type unitResult struct {
	wall     time.Duration
	peaksMB  []float64 // each simulator run's resident-set high-water mark
	instr    float64   // Σ Txns·IPX over measured points; tuner probes excluded
	points   []point
	spans    []span
	runs     int
	failures []error
	// focus is the measured run at the workload's focus point.
	focus *point
}

// runner executes units of a workload; observe, when set, supplies the
// observers attached to the focus point's measured run (the traced
// run's queueing statistics).
type runner struct {
	w       workload
	observe func() []system.Option
}

func (r runner) options(cfg system.Config) []system.Option {
	fw, fp := r.w.focus()
	if r.observe == nil || cfg.Warehouses != fw || cfg.Processors != fp {
		return nil
	}
	return r.observe()
}

// unit runs one unit of work with the given simulator seed.
func (r runner) unit(ctx context.Context, seed int64) (unitResult, error) {
	if r.w.sweep {
		return r.sweepUnit(ctx, seed)
	}
	var res unitResult
	wh, p := r.w.focus()
	cfg := r.w.pointConfig(seed, wh, p)
	resetPeakRSS()
	t0 := time.Now()
	m, err := system.Run(ctx, cfg, r.options(cfg)...)
	res.wall = time.Since(t0)
	res.peaksMB = []float64{peakRSSMB()}
	res.runs = 1
	if err != nil {
		res.failures = append(res.failures, fmt.Errorf("%s: %w", r.w.name, err))
		return res, nil
	}
	if err := checkMetrics(cfg, m); err != nil {
		res.failures = append(res.failures, err)
	}
	res.instr = float64(m.Txns) * m.IPX
	res.points = []point{{cfg, m}}
	res.focus = &res.points[0]
	return res, nil
}

func (r runner) sweepUnit(ctx context.Context, seed int64) (unitResult, error) {
	var (
		res unitResult
		mu  sync.Mutex
	)
	spec := r.w.spec(seed)
	rn := &campaign.Runner{Spec: spec}
	rn.RunFunc = func(ctx context.Context, cfg system.Config) (system.Metrics, error) {
		var opts []system.Option
		if cfg.MeasureTxns == spec.MeasureTxns {
			opts = r.options(cfg)
		}
		// With Parallelism 1 runs never overlap, so the high-water
		// mark read after a run is that run's own.
		resetPeakRSS()
		t0 := time.Now()
		m, err := system.Run(ctx, cfg, opts...)
		dur := time.Since(t0)
		peak := peakRSSMB()
		mu.Lock()
		defer mu.Unlock()
		res.runs++
		res.peaksMB = append(res.peaksMB, peak)
		res.spans = append(res.spans, span{w: cfg.Warehouses, p: cfg.Processors, c: cfg.Clients, txns: cfg.MeasureTxns, dur: dur})
		if err == nil {
			if cerr := checkMetrics(cfg, m); cerr != nil {
				res.failures = append(res.failures, cerr)
			}
		}
		return m, err
	}
	t0 := time.Now()
	out, err := rn.Run(ctx)
	res.wall = time.Since(t0)
	if err != nil {
		if ctx.Err() != nil {
			return res, err
		}
		res.failures = append(res.failures, fmt.Errorf("%s: %w", r.w.name, err))
		return res, nil
	}
	fw, fp := r.w.focus()
	for _, p := range out.Processors {
		for _, wh := range out.Warehouses {
			m, ok := out.Metrics(wh, p)
			if !ok {
				res.failures = append(res.failures, fmt.Errorf("%s: point W=%d P=%d missing", r.w.name, wh, p))
				continue
			}
			pc := r.w.pointConfig(seed, wh, p)
			pc.Clients = m.Clients
			res.points = append(res.points, point{pc, m})
			res.instr += float64(m.Txns) * m.IPX
		}
	}
	for i := range res.points {
		if res.points[i].cfg.Warehouses == fw && res.points[i].cfg.Processors == fp {
			res.focus = &res.points[i]
		}
	}
	return res, nil
}

// campaignStats summarises a sweep's RunFunc spans.
type campaignStats struct {
	probes, measures int
	probeTime        time.Duration
	measureTime      time.Duration
	probeP50         time.Duration
}

// classifySpans splits a sweep's runs into tuner probes and measurement
// runs by their measurement length: probes run TuneTxns transactions,
// measurement runs MeasureTxns. A run of any other length is an error.
func classifySpans(spans []span, tuneTxns, measureTxns int) (campaignStats, error) {
	if tuneTxns == measureTxns {
		return campaignStats{}, fmt.Errorf("probe and measurement runs share length %d", tuneTxns)
	}
	var st campaignStats
	var probe []time.Duration
	for _, s := range spans {
		switch s.txns {
		case tuneTxns:
			st.probes++
			st.probeTime += s.dur
			probe = append(probe, s.dur)
		case measureTxns:
			st.measures++
			st.measureTime += s.dur
		default:
			return campaignStats{}, fmt.Errorf("run W=%d P=%d C=%d of %d transactions is neither probe nor measurement",
				s.w, s.p, s.c, s.txns)
		}
	}
	if len(probe) > 0 {
		sort.Slice(probe, func(i, j int) bool { return probe[i] < probe[j] })
		st.probeP50 = probe[len(probe)/2]
	}
	return st, nil
}

// tuneShare is the fraction of simulator host time spent in probes.
func (s campaignStats) tuneShare() float64 {
	total := s.probeTime + s.measureTime
	if total == 0 {
		return 0
	}
	return float64(s.probeTime) / float64(total)
}
