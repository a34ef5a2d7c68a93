package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"odbscale/internal/observe"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

// spanCfg is the span sampling of every observed test campaign, and of
// the one that wrote testdata/observed-v1.ck.json.
var spanCfg = txtrace.Config{HeadEvery: 50, TailK: 1}

// observers is a campaign's full observer set — the flight recorder and
// every artifact kind — with a view of what each has collected.
type observers struct {
	flight *telemetry.CampaignRecorder
	kinds  []observe.Kind
	stores map[string]func() map[string]any // kind name -> point -> artifact
}

func newObservers() *observers {
	o := &observers{flight: telemetry.NewCampaignRecorder(telemetry.Config{}), stores: map[string]func() map[string]any{}}
	addKind(o, observe.Profiles())
	addKind(o, observe.Spans(spanCfg))
	addKind(o, observe.QStats())
	return o
}

func addKind[T any](o *observers, a *observe.Artifact[T]) {
	o.kinds = append(o.kinds, a)
	o.stores[a.Name()] = func() map[string]any {
		out := map[string]any{}
		for _, k := range a.Store.Keys() {
			out[k] = a.Store.Get(k)
		}
		return out
	}
}

// attach turns on the named observers in spec ("hists" is the flight
// recorder).
func (o *observers) attach(spec *Spec, names ...string) {
	for _, name := range names {
		if name == "hists" {
			spec.Flight = o.flight
			continue
		}
		for _, k := range o.kinds {
			if k.Name() == name {
				spec.Observe = append(spec.Observe, k)
			}
		}
	}
}

// matches reports every difference between what o and ref collected
// for the named observers.
func (o *observers) matches(t *testing.T, ref *observers, points int, names ...string) {
	t.Helper()
	for _, name := range names {
		if name == "hists" {
			got, want := o.flight.MergedHistograms(), ref.flight.MergedHistograms()
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("merged histograms differ from the uninterrupted run's (%d vs %d types)", len(got), len(want))
			}
			continue
		}
		got, want := o.stores[name](), ref.stores[name]()
		if len(got) != points {
			t.Errorf("%s store holds %d points, want %d", name, len(got), points)
		}
		for key, w := range want {
			if g, ok := got[key]; !ok || !reflect.DeepEqual(g, w) {
				t.Errorf("%s artifact of %s differs from the uninterrupted run's", name, key)
			}
		}
	}
}

var allKinds = []string{"hists", "profile", "spans", "qstats"}

// killResumeSpec is a small fixed-client campaign on the real
// simulator.
func killResumeSpec(path string) Spec {
	tun := system.DefaultTuning()
	tun.PrefillSampleTxns = 250
	return Spec{
		Machine:        system.XeonQuad(),
		Tuning:         tun,
		Seed:           3,
		WarmupTxns:     20,
		MeasureTxns:    200,
		Clients:        8,
		Parallelism:    1,
		Warehouses:     []int{10, 20, 30},
		Processors:     []int{1, 2},
		CheckpointPath: path,
	}
}

// killResumeRef is an uninterrupted run of killResumeSpec with every
// observer on, shared by the kill/resume tests.
var killResumeRef = sync.OnceValues(func() (*observers, error) {
	dir, err := os.MkdirTemp("", "killresume")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec := killResumeSpec(filepath.Join(dir, "ref.json"))
	ref := newObservers()
	ref.attach(&spec, allKinds...)
	if _, err := Run(context.Background(), spec); err != nil {
		return nil, err
	}
	return ref, nil
})

// checkKillResume is an observer's crash-consistency guarantee: a
// campaign with the named observers on, killed mid-flight and resumed
// with fresh observers, must converge on exactly the per-point artifacts
// and merged histograms of an uninterrupted run — completed points come
// back from the checkpoint, not from re-runs.
func checkKillResume(t *testing.T, kinds ...string) {
	t.Helper()
	ref, err := killResumeRef()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	probe := killResumeSpec(path)
	total := len(probe.Warehouses) * len(probe.Processors)

	// Kill after three successful points.
	specB := killResumeSpec(path)
	newObservers().attach(&specB, kinds...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &recorder{onFinished: func(successes int) {
		if successes == 3 {
			cancel()
		}
	}}
	specB.Observer = obs
	if _, err := Run(ctx, specB); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	killed := len(obs.successes())
	if killed < 3 || killed >= total {
		t.Fatalf("kill finished %d of %d points — cancellation did not interrupt", killed, total)
	}

	// Resume against the same checkpoint with fresh observers.
	specC := killResumeSpec(path)
	specC.Resume = true
	got := newObservers()
	got.attach(&specC, kinds...)
	res, err := Run(context.Background(), specC)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.PointsResumed != killed || res.Summary.Runs != total-killed {
		t.Fatalf("resume restored %d and ran %d points, want %d and %d",
			res.Summary.PointsResumed, res.Summary.Runs, killed, total-killed)
	}
	got.matches(t, ref, total, kinds...)
}

// TestFlightKillResumeMergesIdentically checks kill/resume of the
// flight observers: merged histograms and per-point profiles.
func TestFlightKillResumeMergesIdentically(t *testing.T) {
	checkKillResume(t, "hists", "profile")
}

// TestSpansKillResumeRestoresDumps checks kill/resume of the span
// tracer's per-point dumps.
func TestSpansKillResumeRestoresDumps(t *testing.T) {
	checkKillResume(t, "spans")
}

// TestQueueStatsKillResumeRestoresReports checks kill/resume of the
// queueing stations' per-point reports.
func TestQueueStatsKillResumeRestoresReports(t *testing.T) {
	checkKillResume(t, "qstats")
}

// TestKindsKillResumeMatchesUninterrupted checks kill/resume with every
// observer on at once.
func TestKindsKillResumeMatchesUninterrupted(t *testing.T) {
	checkKillResume(t, allKinds...)
}

// compatSpec is the campaign that wrote testdata/observed-v1.ck.json,
// a checkpoint from before the observe.Kind contract with all four
// observers on.
func compatSpec(path string) Spec {
	return Spec{
		Machine:        system.XeonQuad(),
		Tuning:         system.DefaultTuning(),
		Seed:           1,
		WarmupTxns:     50,
		MeasureTxns:    200,
		Clients:        8,
		Parallelism:    1,
		Warehouses:     []int{10, 25},
		Processors:     []int{1},
		CheckpointPath: path,
	}
}

// TestResumeObservedCheckpointV1 resumes a checkpoint written before
// artifacts were keyed by kind: every point restores without a re-run,
// and every restored artifact equals the one a fresh run produces.
func TestResumeObservedCheckpointV1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "observed-v1.ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := compatSpec(path)
	spec.Resume = true
	got := newObservers()
	got.attach(&spec, allKinds...)
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(spec.Warehouses) * len(spec.Processors)
	if res.Summary.Runs != 0 || res.Summary.PointsResumed != total {
		t.Fatalf("resume ran %d points and restored %d, want 0 and %d",
			res.Summary.Runs, res.Summary.PointsResumed, total)
	}

	fresh := compatSpec(filepath.Join(dir, "fresh.json"))
	want := newObservers()
	want.attach(&fresh, allKinds...)
	wantRes, err := Run(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Points, wantRes.Points) {
		t.Error("checkpointed metrics differ from a fresh run's")
	}
	got.matches(t, want, total, allKinds...)
}

// TestResumeMeasuresMissingArtifacts checks a resumed campaign that asks
// for an observer the checkpoint lacks measures every such point again —
// once each, with bit-identical metrics — instead of silently dropping
// its artifacts, and keeps one checkpoint entry per point.
func TestResumeMeasuresMissingArtifacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	first, err := Run(context.Background(), compatSpec(path))
	if err != nil {
		t.Fatal(err)
	}

	spec := compatSpec(path)
	spec.Resume = true
	o := newObservers()
	o.attach(&spec, "profile")
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(spec.Warehouses) * len(spec.Processors)
	if res.Summary.Runs != total || res.Summary.PointsResumed != 0 {
		t.Fatalf("resume ran %d points and restored %d, want %d and 0",
			res.Summary.Runs, res.Summary.PointsResumed, total)
	}
	if !reflect.DeepEqual(res.Points, first.Points) {
		t.Error("re-measured metrics differ from the checkpointed ones")
	}
	profiles := o.stores["profile"]()
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Points) != total {
		t.Fatalf("checkpoint holds %d entries, want one per point (%d)", len(cp.Points), total)
	}
	for _, pt := range cp.Points {
		name := telemetry.PointName(pt.W, pt.P)
		if profiles[name] == nil || pt.Flight["profile"] == nil {
			t.Errorf("%s: no profile after resume", name)
		}
	}
}
