package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building canned profiles.
type pb struct{ buf []byte }

func (p *pb) key(num, wire int) { p.buf = binary.AppendUvarint(p.buf, uint64(num<<3|wire)) }

func (p *pb) uint(num int, v uint64) {
	p.key(num, 0)
	p.buf = binary.AppendUvarint(p.buf, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.key(num, 2)
	p.buf = binary.AppendUvarint(p.buf, uint64(len(b)))
	p.buf = append(p.buf, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(num, inner)
}

// cannedProfile encodes a CPU profile of the given samples. Each stack
// frame, leaf first, is one location; a frame "a|b" is a location whose
// line list holds a inlined into b.
func cannedProfile(t *testing.T, samples []profileSample) []byte {
	t.Helper()
	var prof pb
	strs := []string{""}
	strIndex := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	// sample_type: samples/count, cpu/nanoseconds.
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.uint(1, strIndex(vt[0]))
		m.uint(2, strIndex(vt[1]))
		prof.bytes(1, m.buf)
	}
	funcs := map[string]uint64{}
	funcID := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		var f pb
		f.uint(1, id)
		f.uint(2, strIndex(name))
		prof.bytes(5, f.buf)
		return id
	}
	locID := uint64(0)
	for i, s := range samples {
		var ids []uint64
		for _, frame := range s.stack {
			locID++
			var loc pb
			loc.uint(1, locID)
			for _, fn := range bytes.Split([]byte(frame), []byte("|")) {
				var line pb
				line.uint(1, funcID(string(fn)))
				loc.bytes(4, line.buf)
			}
			prof.bytes(4, loc.buf)
			ids = append(ids, locID)
		}
		var sm pb
		if i%2 == 0 {
			sm.packed(1, ids...)
			sm.packed(2, 1, uint64(s.value))
		} else {
			for _, id := range ids {
				sm.uint(1, id)
			}
			sm.uint(2, 1)
			sm.uint(2, uint64(s.value))
		}
		prof.bytes(2, sm.buf)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.buf); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldCannedProfile(t *testing.T) {
	data := cannedProfile(t, []profileSample{
		{stack: []string{"odbscale/internal/cache.(*Domain).Access", "odbscale/internal/workload.(*Synth).Run"}, value: 30},
		{stack: []string{"odbscale/internal/xrand.(*Rand).Uint64|odbscale/internal/workload.(*Synth).Run"}, value: 20},
		{stack: []string{"internal/runtime/maps.(*Map).getWithKeySmall", "odbscale/internal/buffercache.(*Cache).Lookup"}, value: 10},
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, value: 15},
		{stack: []string{"odbscale/internal/engine/lsm.(*instance).MemWrite"}, value: 5},
		{stack: []string{"sort.Slice", "odbscale/internal/system.(*machine).prefill"}, value: 10},
		{stack: []string{"odbscale/internal/qstats.(*Station).Visit"}, value: 10},
	})
	samples, err := decodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("decoded %d samples, want 7", len(samples))
	}
	if got := samples[1].stack; len(got) != 2 || got[0] != "odbscale/internal/xrand.(*Rand).Uint64" {
		t.Fatalf("inlined location decoded as %q", got)
	}
	shares := foldShares(samples)
	want := map[string]float64{
		"cache": 0.30, "xrand": 0.20, "go_maps": 0.10, "gc": 0.15,
		"engine": 0.05, "other": 0.20,
	}
	var sum float64
	for _, pkg := range sharePackages {
		got, ok := shares[pkg]
		if !ok {
			t.Errorf("share of %s missing", pkg)
		}
		if math.Abs(got-want[pkg]) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", pkg, got, want[pkg])
		}
		sum += got
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if len(shares) != len(sharePackages) {
		t.Errorf("fold reported %d layers, want %d", len(shares), len(sharePackages))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Fatal("decoded a non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f}) // length-delimited field overrunning the message
	zw.Close()
	if _, err := decodeProfile(gz.Bytes()); err == nil {
		t.Fatal("decoded a truncated message")
	}
}

// TestFoldRuntimeProfile decodes a profile runtime/pprof really wrote.
func TestFoldRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	sink += x
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profile holds no samples")
	}
	var sum float64
	for _, v := range foldShares(samples) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}
