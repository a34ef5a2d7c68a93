package main

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"odbscale/internal/cpu"
	"odbscale/internal/system"
)

func smallConfig() system.Config {
	cfg := system.DefaultConfig(10, 8, 1)
	cfg.WarmupTxns, cfg.MeasureTxns = 50, 200
	return cfg
}

func TestCheckMetrics(t *testing.T) {
	cfg := smallConfig()
	m, err := system.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMetrics(cfg, m); err != nil {
		t.Fatalf("genuine run rejected: %v", err)
	}
	doctored := []struct {
		name  string
		edit  func(*system.Metrics)
		error string
	}{
		{"short Txns", func(m *system.Metrics) { m.Txns-- }, "cap hit"},
		{"TPS off", func(m *system.Metrics) { m.TPS *= 1.05 }, "iron law"},
		{"CPI off", func(m *system.Metrics) { m.CPI *= 0.9 }, "iron law"},
		{"NaN TPS", func(m *system.Metrics) { m.TPS = math.NaN() }, "iron law"},
		{"negative component", func(m *system.Metrics) { m.Breakdown.L2 = -0.1 }, "CPI component"},
		{"infinite component", func(m *system.Metrics) { m.Breakdown.L3 = math.Inf(1) }, "CPI component"},
		{"empty breakdown", func(m *system.Metrics) { m.Breakdown = cpu.Breakdown{} }, "breakdown total"},
	}
	for _, d := range doctored {
		bad := m
		d.edit(&bad)
		err := checkMetrics(cfg, bad)
		if err == nil || !strings.Contains(err.Error(), d.error) {
			t.Errorf("%s: got %v, want an error mentioning %q", d.name, err, d.error)
		}
	}
}

func TestCheckTxnsOnSetupProbe(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupTxns, cfg.MeasureTxns = 0, 1
	m, err := system.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTxns(cfg, m); err != nil {
		t.Fatalf("genuine set-up probe rejected: %v", err)
	}
	m.Txns = 0
	if err := checkTxns(cfg, m); err == nil {
		t.Fatal("set-up probe without its transaction accepted")
	}
}

func TestDigest(t *testing.T) {
	cfg := smallConfig()
	a, err := system.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := system.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if digest(a) != digest(b) {
		t.Fatal("identical runs gave different digests")
	}
	b.BusTime = math.Nextafter(b.BusTime, math.Inf(1))
	if digest(a) == digest(b) {
		t.Fatal("a one-bit change kept the digest")
	}
}

func TestClassifySpans(t *testing.T) {
	spans := []span{
		{w: 10, p: 1, c: 8, txns: 300, dur: 3 * time.Second},
		{w: 10, p: 1, c: 16, txns: 300, dur: 1 * time.Second},
		{w: 10, p: 1, c: 16, txns: 600, dur: 2 * time.Second},
		{w: 100, p: 1, c: 16, txns: 300, dur: 2 * time.Second},
		{w: 100, p: 1, c: 16, txns: 600, dur: 2 * time.Second},
	}
	st, err := classifySpans(spans, 300, 600)
	if err != nil {
		t.Fatal(err)
	}
	if st.probes != 3 || st.measures != 2 {
		t.Fatalf("classified %d probes and %d measurements, want 3 and 2", st.probes, st.measures)
	}
	if st.probeP50 != 2*time.Second {
		t.Errorf("probe p50 %v, want 2s", st.probeP50)
	}
	if got := st.tuneShare(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("tune share %v, want 0.6", got)
	}
	if _, err := classifySpans(append(spans, span{txns: 1}), 300, 600); err == nil {
		t.Error("a run of unknown length was classified")
	}
	if _, err := classifySpans(spans, 600, 600); err == nil {
		t.Error("equal probe and measurement lengths were accepted")
	}
}

// TestSweepSpans drives a one-point sweep through the wrapped RunFunc:
// every simulator run is recorded, and the spans split into the tuner's
// probes and the one measurement run.
func TestSweepSpans(t *testing.T) {
	w := workload{name: "test-sweep", ws: []int{10}, ps: []int{1}, sweep: true}
	u, err := runner{w: w}.unit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.failures) > 0 {
		t.Fatalf("sweep failed its output check: %v", u.failures)
	}
	st, err := classifySpans(u.spans, sweepTune, sweepMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if st.measures != 1 || st.probes < 1 || st.probes+st.measures != u.runs {
		t.Fatalf("%d runs split into %d probes and %d measurements", u.runs, st.probes, st.measures)
	}
	if len(u.points) != 1 || u.focus == nil || u.instr <= 0 {
		t.Fatalf("sweep reported %d points, focus %v, %v instructions", len(u.points), u.focus, u.instr)
	}
}
