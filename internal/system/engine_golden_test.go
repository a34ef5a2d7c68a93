package system

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestBTreeEngineGolden pins the B-tree engine to the metrics the
// simulator produced before the StorageEngine boundary existed. The
// golden file was generated from the pre-refactor tree at every
// W ∈ {10, 200, 1200} × P ∈ {1, 4} point of the determinism suite; the
// carve-out is only a refactor if every one of those runs is
// bit-identical. Comparison is keyed on the golden file's fields so
// Metrics may grow new fields (engine amplification counters) without
// invalidating the pin — but any drift in a pre-existing value fails.
//
// Go's encoding/json round-trips float64 exactly, so comparing the
// decoded values is still a bit-level check.
func TestBTreeEngineGolden(t *testing.T) {
	points := []struct{ w, p int }{{10, 1}, {10, 4}, {200, 1}, {200, 4}, {1200, 1}, {1200, 4}}
	if testing.Short() {
		points = points[:2]
	}
	checkGolden(t, "metrics-btree.json", points, determinismConfig)
}

// TestLSMEngineGolden pins the LSM engine the same way. Its golden file
// was generated before the batched branch-outcome kernel replaced the
// per-branch loop in reference synthesis, at W ∈ {10, 200} × P ∈ {1, 4}
// on lsmCfg; any later speed-up of the synthesis or RNG layers must
// leave these runs bit-identical or re-pin the file on purpose.
func TestLSMEngineGolden(t *testing.T) {
	points := []struct{ w, p int }{{10, 1}, {10, 4}, {200, 1}, {200, 4}}
	if testing.Short() {
		points = points[:2]
	}
	checkGolden(t, "metrics-lsm.json", points, lsmCfg)
}

// checkGolden runs every (W, P) point through cfgFor and compares the
// run's Metrics against the named golden file's entry for that point.
func checkGolden(t *testing.T, file string, points []struct{ w, p int }, cfgFor func(w, p int) Config) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", file))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var golden map[string]map[string]any
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	for _, pt := range points {
		key := fmt.Sprintf("[%d,%d]", pt.w, pt.p)
		want, ok := golden[key]
		if !ok {
			t.Fatalf("golden file has no point %s", key)
		}
		t.Run(key, func(t *testing.T) {
			m, err := Run(context.Background(), cfgFor(pt.w, pt.p))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatalf("marshal metrics: %v", err)
			}
			var got map[string]any
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("decode metrics: %v", err)
			}
			compareOnGoldenKeys(t, "", want, got)
		})
	}
}

// compareOnGoldenKeys recursively checks that every field present in the
// golden value matches the run's value exactly. Fields the run has but
// the golden lacks are ignored (new Metrics fields are allowed; drift in
// old ones is not).
func compareOnGoldenKeys(t *testing.T, path string, want, got map[string]any) {
	t.Helper()
	for k, wv := range want {
		p := k
		if path != "" {
			p = path + "." + k
		}
		gv, ok := got[k]
		if !ok {
			t.Errorf("%s: missing from run metrics", p)
			continue
		}
		wm, wIsMap := wv.(map[string]any)
		gm, gIsMap := gv.(map[string]any)
		if wIsMap && gIsMap {
			compareOnGoldenKeys(t, p, wm, gm)
			continue
		}
		if wv != gv {
			t.Errorf("%s: golden %v, got %v", p, wv, gv)
		}
	}
}
