package observe

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/system"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

// Artifact is a Kind whose per-point artifact is a T kept in Store and
// served on one live endpoint. It also owns the artifact's file format
// and pairwise diff, which the CLIs read, write and compare files with.
type Artifact[T any] struct {
	Store *Store[T]
	name  string
	path  string // live endpoint path
	field string // JSON field naming the artifact in the endpoint payload
	// arm builds one run's collector; its result func yields the
	// finished artifact labelled with the point name, false when the
	// run published none.
	arm    func() (system.Option, func(point string) (T, bool))
	encode func(T, io.Writer) error
	diff   func(w io.Writer, a, b T) error
}

// Name returns the artifact's checkpoint key.
func (a *Artifact[T]) Name() string { return a.name }

// Endpoint returns the live endpoint path serving the store and the
// writer of its payload.
func (a *Artifact[T]) Endpoint() (string, func(io.Writer) error) {
	return a.path, func(w io.Writer) error { return a.Store.WriteJSON(w, a.field) }
}

// Attach arms a fresh collector for the point's run.
func (a *Artifact[T]) Attach(point string) (system.Option, Finish) {
	opt, result := a.arm()
	return opt, func(ok bool) (json.RawMessage, error) {
		if !ok {
			return nil, nil
		}
		v, has := result(point)
		if !has {
			return nil, nil
		}
		a.Store.Put(point, v)
		data, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("observe: %s %s: %w", a.name, point, err)
		}
		return data, nil
	}
}

// Restore decodes a checkpointed artifact into the store.
func (a *Artifact[T]) Restore(point string, data json.RawMessage) error {
	v, err := a.Decode(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("observe: %s %s: %w", a.name, point, err)
	}
	a.Store.Put(point, v)
	return nil
}

// Encode writes an artifact in its file format, indented JSON.
func (a *Artifact[T]) Encode(v T, w io.Writer) error { return a.encode(v, w) }

// Decode reads one artifact file. A null artifact and any data after
// the JSON value are errors.
func (a *Artifact[T]) Decode(r io.Reader) (T, error) {
	var v T
	data, err := io.ReadAll(r)
	switch {
	case err != nil:
	case bytes.Equal(bytes.TrimSpace(data), []byte("null")):
		err = errors.New("null artifact")
	default:
		err = json.Unmarshal(data, &v)
	}
	return v, err
}

// Diff writes the pairwise comparison of two artifacts, a as the
// baseline.
func (a *Artifact[T]) Diff(w io.Writer, x, y T) error { return a.diff(w, x, y) }

// Profiles is the cycle-attribution profiler: one profile.Profile per
// point, served on /profile.
func Profiles() *Artifact[*profile.Profile] {
	return &Artifact[*profile.Profile]{
		Store: NewStore[*profile.Profile](), name: "profile", path: "/profile", field: "profile",
		arm: func() (system.Option, func(string) (*profile.Profile, bool)) {
			col := profile.NewCollector()
			return system.WithProfiler(col), func(point string) (*profile.Profile, bool) {
				p := col.Profile()
				p.Meta.Label = point
				return p, true
			}
		},
		encode: (*profile.Profile).Encode,
		diff:   func(w io.Writer, a, b *profile.Profile) error { return profile.Diff(a, b).Write(w) },
	}
}

// Spans is the per-transaction span tracer sampling with cfg: one
// txtrace.Dump per point, served on /traces.
func Spans(cfg txtrace.Config) *Artifact[*txtrace.Dump] {
	return &Artifact[*txtrace.Dump]{
		Store: NewStore[*txtrace.Dump](), name: "spans", path: "/traces", field: "dump",
		arm: func() (system.Option, func(string) (*txtrace.Dump, bool)) {
			tr := txtrace.NewTracer(cfg)
			return system.WithSpans(tr), func(point string) (*txtrace.Dump, bool) {
				d := tr.Dump()
				d.Meta.Label = point
				return d, true
			}
		},
		encode: (*txtrace.Dump).Write,
		diff:   txtrace.WriteDiff,
	}
}

// QStats is the queueing observatory: one qstats.Report per point,
// served on /bottlenecks.
func QStats() *Artifact[*qstats.Report] {
	return &Artifact[*qstats.Report]{
		Store: NewStore[*qstats.Report](), name: "qstats", path: "/bottlenecks", field: "report",
		arm: func() (system.Option, func(string) (*qstats.Report, bool)) {
			qc := qstats.NewCollector()
			return system.WithQueueStats(qc), func(point string) (*qstats.Report, bool) {
				rep := qc.Report()
				if rep == nil {
					return nil, false
				}
				rep.Meta.Label = point
				return rep, true
			}
		},
		encode: (*qstats.Report).WriteJSON,
		diff:   qstats.WriteDiff,
	}
}

// hists feeds each point's run into a campaign flight recorder and
// persists the run's latency histograms (base64 of the mergeable
// Histogram encoding, keyed by transaction type), so a resumed campaign
// merges the same campaign-wide histograms as an uninterrupted one.
type hists struct{ cr *telemetry.CampaignRecorder }

// Hists is the flight recorder's per-point kind over cr, which keeps
// the merged histograms and serves them on its own endpoints.
func Hists(cr *telemetry.CampaignRecorder) Kind { return hists{cr} }

func (hists) Name() string { return "hists" }

// Endpoint is empty: the recorder serves its histograms on /metrics.
func (hists) Endpoint() (string, func(io.Writer) error) { return "", nil }

func (h hists) Attach(point string) (system.Option, Finish) {
	rec := h.cr.StartRun(point)
	return system.WithRecorder(rec), func(ok bool) (json.RawMessage, error) {
		h.cr.FinishRun(point, ok)
		if !ok {
			return nil, nil
		}
		hs := rec.Histograms()
		names := make([]string, 0, len(hs))
		for name := range hs {
			names = append(names, name)
		}
		sort.Strings(names)
		enc := make(map[string]string, len(hs))
		for _, name := range names {
			enc[name] = base64.StdEncoding.EncodeToString(hs[name].Encode())
		}
		return json.Marshal(enc)
	}
}

func (h hists) Restore(point string, data json.RawMessage) error {
	var enc map[string]string
	if err := json.Unmarshal(data, &enc); err != nil {
		return fmt.Errorf("observe: hists %s: %w", point, err)
	}
	out := make(map[string]*telemetry.Histogram, len(enc))
	for name, s := range enc {
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return fmt.Errorf("observe: hists %s: histogram %q: %w", point, name, err)
		}
		hist, err := telemetry.DecodeHistogram(raw)
		if err != nil {
			return fmt.Errorf("observe: hists %s: histogram %q: %w", point, name, err)
		}
		out[name] = hist
	}
	h.cr.RestoreRun(point, out)
	return nil
}
