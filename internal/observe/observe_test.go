package observe

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"odbscale/internal/odb"
	"odbscale/internal/profile"
	"odbscale/internal/qstats"
	"odbscale/internal/sim"
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

// checkRoundTrip checks a kind's Decode reads back exactly what its
// Encode wrote.
func checkRoundTrip[T any](t *testing.T, k *Artifact[T], v T) {
	t.Helper()
	var buf bytes.Buffer
	if err := k.Encode(v, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := k.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("%s round trip mismatch:\n got %+v\nwant %+v", k.Name(), back, v)
	}
}

// TestProfilesCodecRoundTrip checks the profile file form is lossless.
func TestProfilesCodecRoundTrip(t *testing.T) {
	p := sampleProfile("W=10,P=1", 5000)
	col := profile.NewCollector()
	col.SetMeta(profile.Meta{Label: "W=10,P=1", Warehouses: 10, Processors: 1, Scale: 64, FreqHz: 1.6e9})
	col.AddChunk(profile.User,
		[]profile.Share{{Kind: profile.KindOf(odb.NewOrder), Phase: odb.PhaseBTree, Instr: 3000},
			{Kind: profile.KindOf(odb.Payment), Phase: odb.PhaseLock, Instr: 2000}},
		5000, 12500, profile.Events{L3Miss: 4, L2Miss: 9, Mispred: 3, BusLatency: 1.5})
	col.AddChunk(profile.OS,
		[]profile.Share{{Kind: profile.KindOf(odb.NewOrder), Phase: odb.PhaseSyscall, Instr: 1200}},
		1200, 4100, profile.Events{TLBMiss: 2})
	checkRoundTrip(t, Profiles(), p)
	checkRoundTrip(t, Profiles(), col.Profile())
}

// TestSpansCodecRoundTrip checks the trace dump file form reproduces
// the dump exactly.
func TestSpansCodecRoundTrip(t *testing.T) {
	tr := txtrace.NewTracer(txtrace.Config{HeadEvery: 1, TailK: 2})
	tr.SetMeta(txtrace.Meta{Label: "test", Warehouses: 10, Clients: 8, Processors: 2, Seed: 7, FreqHz: 2e9})
	ps := tr.NewProcState(1)
	for i := 0; i < 5; i++ {
		at := sim.Time(i * 1000)
		ps.Begin(odb.Payment, at)
		ps.AddInstr(odb.PhaseBuffer, 40)
		ps.EndChunk(at, 100, 80)
		ps.SetBlock(txtrace.KindBusyWait, 0)
		ps.StartChunk(at+300, at+250)
		tr.End(ps, at+300, true)
	}
	checkRoundTrip(t, Spans(txtrace.Config{}), tr.Dump())
}

// TestQStatsCodecRoundTrip checks the station report file form is
// lossless.
func TestQStatsCodecRoundTrip(t *testing.T) {
	checkRoundTrip(t, QStats(), sampleReport())
}

// TestDecodeRejectsNullAndTrailingData checks every kind's file decoder
// has Restore's strictness: a null artifact and data after the JSON
// value are errors.
func TestDecodeRejectsNullAndTrailingData(t *testing.T) {
	decoders := []struct {
		name   string
		decode func(io.Reader) error
	}{
		{"profile", func(r io.Reader) error { _, err := Profiles().Decode(r); return err }},
		{"spans", func(r io.Reader) error { _, err := Spans(txtrace.Config{}).Decode(r); return err }},
		{"qstats", func(r io.Reader) error { _, err := QStats().Decode(r); return err }},
	}
	for _, d := range decoders {
		for _, data := range []string{`null`, " null\n", `{} x`, `{}{}`, `{"meta":{}} null`, ``} {
			if err := d.decode(strings.NewReader(data)); err == nil {
				t.Errorf("%s decoded %q", d.name, data)
			}
		}
		if err := d.decode(strings.NewReader("{}\n")); err != nil {
			t.Errorf("%s rejected an empty artifact: %v", d.name, err)
		}
	}
}

// TestDiffWritesPackageDiff checks each kind's Diff is its package's
// pairwise comparison.
func TestDiffWritesPackageDiff(t *testing.T) {
	lo, hi := sampleProfile("W=10,P=1", 5000), sampleProfile("W=20,P=1", 9000)
	var got, want bytes.Buffer
	if err := Profiles().Diff(&got, lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := profile.Diff(lo, hi).Write(&want); err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || got.String() != want.String() {
		t.Errorf("profile diff:\n%s\nwant\n%s", got.String(), want.String())
	}
	got.Reset()
	want.Reset()
	a, b := sampleReport(), sampleReport()
	b.Stations[qstats.Disk].WaitDemandMS *= 2
	if err := QStats().Diff(&got, a, b); err != nil {
		t.Fatal(err)
	}
	if err := qstats.WriteDiff(&want, a, b); err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || got.String() != want.String() {
		t.Errorf("qstats diff:\n%s\nwant\n%s", got.String(), want.String())
	}
	got.Reset()
	want.Reset()
	d := &txtrace.Dump{Meta: txtrace.Meta{Label: "W=10,P=1"}}
	if err := Spans(txtrace.Config{}).Diff(&got, d, d); err != nil {
		t.Fatal(err)
	}
	if err := txtrace.WriteDiff(&want, d, d); err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || got.String() != want.String() {
		t.Errorf("spans diff:\n%s\nwant\n%s", got.String(), want.String())
	}
}
