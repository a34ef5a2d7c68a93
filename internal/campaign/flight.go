package campaign

import (
	"fmt"
	"time"

	"odbscale/internal/clock"
	"odbscale/internal/telemetry"
)

// flightObserver mirrors campaign events into a CampaignRecorder's live
// progress, feeding the /progress and /metrics endpoints. It is the glue
// between the two packages: telemetry cannot import campaign, so the
// event translation lives here.
type flightObserver struct {
	cr *telemetry.CampaignRecorder
}

// newFlightObserver returns an Observer that keeps cr's campaign
// progress current. The runner installs it when Spec.Flight is set.
func newFlightObserver(cr *telemetry.CampaignRecorder) Observer {
	return &flightObserver{cr: cr}
}

func (f *flightObserver) PointStarted(p Point) {
	f.cr.Event(func(cp *telemetry.CampaignProgress) {
		cp.LastEvent = fmt.Sprintf("measuring W=%d P=%d c=%d", p.Warehouses, p.Processors, p.Clients)
	})
}

func (f *flightObserver) PointFinished(p PointResult) {
	f.cr.Event(func(cp *telemetry.CampaignProgress) {
		cp.PointsDone++
		switch {
		case p.Err != nil:
			cp.PointsFailed++
			cp.Runs++
			cp.LastEvent = fmt.Sprintf("W=%d P=%d failed: %v", p.Warehouses, p.Processors, p.Err)
		case p.Resumed:
			cp.PointsResumed++
			cp.LastEvent = fmt.Sprintf("W=%d P=%d resumed from checkpoint", p.Warehouses, p.Processors)
		default:
			cp.Runs++
			cp.LastEvent = fmt.Sprintf("W=%d P=%d c=%d util=%.2f tps=%.0f",
				p.Warehouses, p.Processors, p.Clients, p.Metrics.CPUUtil, p.Metrics.TPS)
		}
	})
}

func (f *flightObserver) TunerProbe(p Probe) {
	f.cr.Event(func(cp *telemetry.CampaignProgress) {
		cp.Probes++
		if p.Cached {
			cp.ProbesCached++
		} else {
			cp.Runs++
		}
		cp.LastEvent = fmt.Sprintf("tuning W=%d P=%d: c=%d util=%.2f", p.Warehouses, p.Processors, p.Clients, p.Util)
	})
}

func (f *flightObserver) CampaignDone(s Summary) {
	f.cr.Event(func(cp *telemetry.CampaignProgress) {
		cp.Done = true
		if s.Err != nil {
			cp.Err = s.Err.Error()
		}
		cp.LastEvent = "campaign done"
	})
}

// manifestConfig is the JSON-serializable projection of a Spec — every
// run-defining knob, none of the live plumbing (observers, recorders).
func (s *Spec) manifestConfig() any {
	return struct {
		Machine     any     `json:"machine"`
		Tuning      any     `json:"tuning"`
		Seed        int64   `json:"seed"`
		WarmupTxns  int     `json:"warmup_txns"`
		MeasureTxns int     `json:"measure_txns"`
		TuneTxns    int     `json:"tune_txns"`
		TargetUtil  float64 `json:"target_util"`
		MinClients  int     `json:"min_clients"`
		MaxClients  int     `json:"max_clients"`
		AutoTune    bool    `json:"auto_tune"`
		Clients     int     `json:"clients"`
		WarmStart   bool    `json:"warm_start"`
		Parallelism int     `json:"parallelism"`
		Warehouses  []int   `json:"warehouses"`
		Processors  []int   `json:"processors"`
	}{
		Machine: s.Machine, Tuning: s.Tuning, Seed: s.Seed,
		WarmupTxns: s.WarmupTxns, MeasureTxns: s.MeasureTxns, TuneTxns: s.TuneTxns,
		TargetUtil: s.TargetUtil, MinClients: s.MinClients, MaxClients: s.MaxClients,
		AutoTune: s.AutoTune, Clients: s.Clients, WarmStart: s.WarmStart,
		Parallelism: s.Parallelism, Warehouses: s.Warehouses, Processors: s.Processors,
	}
}

// writeManifest emits the run manifest next to the checkpoint. Wall
// times flow through the runner's injected clock, keeping the package
// inside the determinism rule.
func (r *Runner) writeManifest(clk clock.Clock, started time.Time, notes string) error {
	spec := &r.Spec
	man := telemetry.NewManifest("odbscale-campaign", spec.Seed)
	man.CreatedAt = started.UTC().Format(time.RFC3339)
	man.Checkpoint = spec.CheckpointPath
	man.WallSeconds = clk.Since(started).Seconds()
	man.Notes = notes
	if err := man.SetConfig(spec.manifestConfig()); err != nil {
		return err
	}
	return man.Save(telemetry.ManifestPath(spec.CheckpointPath))
}
