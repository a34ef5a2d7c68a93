package observe

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"odbscale/internal/odb"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/telemetry"
	"odbscale/internal/txtrace"
)

func sampleProfile(label string, instr uint64) *profile.Profile {
	col := profile.NewCollector()
	col.SetMeta(profile.Meta{Label: label, Scale: 1})
	col.AddChunk(profile.User,
		[]profile.Share{{Kind: profile.KindOf(odb.NewOrder), Phase: odb.PhaseBTree, Instr: instr}},
		instr, float64(instr)*2.5, profile.Events{L3Miss: 4})
	return col.Profile()
}

func sampleReport() *qstats.Report {
	in := &qstats.Input{ElapsedCycles: 1e9, CyclesPerMS: 1e6, Commits: 100}
	in.Counts[qstats.Disk] = qstats.Counts{Arrivals: 10, Completions: 10, BusyCycles: 5e6, WaitCycles: 2e6}
	in.Servers[qstats.Disk] = 4
	return qstats.Build(in)
}

// TestStore checks ordering, lookup and the /profile payload.
func TestStore(t *testing.T) {
	s := NewStore[*profile.Profile]()
	s.Put("W=10,P=1", sampleProfile("W=10,P=1", 5000))
	s.Put("W=2,P=1", sampleProfile("W=2,P=1", 3000))
	if got := s.Keys(); len(got) != 2 || got[0] != "W=10,P=1" {
		t.Errorf("keys = %v", got)
	}
	if s.Get("W=2,P=1") == nil || s.Get("missing") != nil {
		t.Error("Get misbehaves")
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf, "profile"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"key": "W=10,P=1"`) {
		t.Errorf("payload missing key:\n%s", buf.String())
	}
}

// TestStoreInsertionOrder checks a replaced key keeps its first slot.
func TestStoreInsertionOrder(t *testing.T) {
	s := NewStore[*qstats.Report]()
	s.Put("b", sampleReport())
	s.Put("a", sampleReport())
	s.Put("b", sampleReport())
	if got := s.Keys(); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("keys = %v, want [b a]", got)
	}
	if s.Get("a") == nil || s.Get("missing") != nil {
		t.Fatal("Get misbehaved")
	}
}

// TestStoreRoundTrip checks each kind's endpoint payload is byte for
// byte the array of {"key", <field>} objects the per-package stores
// served, and decodes back to the stored artifacts.
func TestStoreRoundTrip(t *testing.T) {
	prof := Profiles()
	prof.Store.Put("W=10,P=1", sampleProfile("W=10,P=1", 5000))
	prof.Store.Put("W=20,P=1", sampleProfile("W=20,P=1", 7000))
	spans := Spans(txtrace.Config{})
	spans.Store.Put("W=10,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=10,P=1"}})
	stations := QStats()
	stations.Store.Put("W=10,P=1", sampleReport())

	type profEntry struct {
		Key     string           `json:"key"`
		Profile *profile.Profile `json:"profile"`
	}
	type dumpEntry struct {
		Key  string        `json:"key"`
		Dump *txtrace.Dump `json:"dump"`
	}
	type repEntry struct {
		Key    string         `json:"key"`
		Report *qstats.Report `json:"report"`
	}
	for _, tc := range []struct {
		kind Kind
		path string
		want any // the pre-generic store's entry slice
		got  any // a fresh slice of the same type to decode into
	}{
		{prof, "/profile", []profEntry{
			{"W=10,P=1", prof.Store.Get("W=10,P=1")}, {"W=20,P=1", prof.Store.Get("W=20,P=1")},
		}, &[]profEntry{}},
		{spans, "/traces", []dumpEntry{{"W=10,P=1", spans.Store.Get("W=10,P=1")}}, &[]dumpEntry{}},
		{stations, "/bottlenecks", []repEntry{{"W=10,P=1", stations.Store.Get("W=10,P=1")}}, &[]repEntry{}},
	} {
		path, write := tc.kind.Endpoint()
		if path != tc.path {
			t.Errorf("%s endpoint = %q, want %q", tc.kind.Name(), path, tc.path)
		}
		var got, want bytes.Buffer
		if err := write(&got); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(tc.want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s payload differs:\ngot  %s\nwant %s", path, got.String(), want.String())
		}
		if err := json.Unmarshal(got.Bytes(), tc.got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reflect.ValueOf(tc.got).Elem().Interface(), tc.want) {
			t.Errorf("%s payload does not decode to the stored artifacts", path)
		}
	}
}

// TestRestoreRejectsDamage checks a damaged checkpoint payload is an
// error for every kind, never a panic or a nil artifact in a store.
func TestRestoreRejectsDamage(t *testing.T) {
	kinds := []Kind{Hists(telemetry.NewCampaignRecorder(telemetry.Config{})),
		Profiles(), Spans(txtrace.Config{}), QStats()}
	for _, k := range kinds {
		for _, data := range []string{``, `{`, `[1,2]`, `"x"`} {
			if err := k.Restore("W=1,P=1", json.RawMessage(data)); err == nil {
				t.Errorf("%s restored damaged payload %q", k.Name(), data)
			}
		}
	}
	for _, k := range kinds[1:] {
		if err := k.Restore("W=1,P=1", json.RawMessage(`null`)); err == nil {
			t.Errorf("%s restored a null artifact", k.Name())
		}
	}
	if err := kinds[0].Restore("W=1,P=1", json.RawMessage(`{"NewOrder":"!!"}`)); err == nil {
		t.Error("hists restored a non-base64 histogram")
	}
}
