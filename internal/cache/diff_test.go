package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// Differential tests: the Domain, which keeps one invalidated-line set per
// CPU and no counters, against refDomain (refdomain_test.go), which keeps
// an invalidated-line map and counters in every cache level. Both are
// driven with the same reference stream and must return the same
// AccessResult for every reference and hold the same cache contents.

// diffLines is the line pool the streams draw from. With diffGeometry it
// oversubscribes every set at every level, so the streams see conflict
// evictions, L2 victims still resident in the L3, and L3 victims still
// resident in the L2.
const diffLines = 96

// diffGeometry is a hierarchy small enough for diffLines to contend for
// every set: 4 TC sets, 8 L2 sets and 16 L3 sets.
func diffGeometry(sample uint64) Geometry {
	return Geometry{LineSize: 64, TCSize: 512, TCWays: 2, L2Size: 1 << 10, L2Ways: 2, L3Size: 4 << 10, L3Ways: 4, Sample: sample}
}

type diffHarness struct {
	t      testing.TB
	got    *Domain
	ref    *refDomain
	n      int // references issued
	coher  int // coherence misses seen
	remote int // references that found the line in another CPU's L3
}

func newDiffHarness(t testing.TB, cpus int, coherent bool, sample uint64) *diffHarness {
	g := diffGeometry(sample)
	return &diffHarness{t: t, got: NewDomain(g, cpus, coherent), ref: newRefDomain(g, cpus, coherent)}
}

// access issues one reference to both domains and compares the results.
// The byte offset inside the line varies so line extraction is covered.
func (h *diffHarness) access(cpu int, line uint64, kind Kind) {
	h.t.Helper()
	addr := Addr(line*64 + (line*7)%64)
	for i, other := range h.ref.CPUs {
		if _, ok := other.l3.Probe(line); ok && i != cpu {
			h.remote++
			break
		}
	}
	got := h.got.Access(cpu, addr, kind)
	want := h.ref.Access(cpu, addr, kind)
	h.n++
	if got != want {
		h.t.Fatalf("reference %d (CPU %d, kind %d, line %d): got %+v, want %+v", h.n, cpu, kind, line, got, want)
	}
	if got.Coherence {
		h.coher++
	}
}

// checkState compares every level's contents, and each CPU's
// invalidated-line set with the reference L3's map, which is the only
// one whose classification the reference ever reported.
func (h *diffHarness) checkState() {
	h.t.Helper()
	for i, g := range h.got.CPUs {
		r := h.ref.CPUs[i]
		for _, lv := range []struct {
			name string
			got  *Cache
			ref  *refCache
		}{{"tc", g.tc, r.tc}, {"l2", g.l2, r.l2}, {"l3", g.l3, r.l3}} {
			if !reflect.DeepEqual(lv.got.sets, lv.ref.sets) {
				h.t.Fatalf("after %d references: CPU %d %s contents differ from the reference", h.n, i, lv.name)
			}
		}
		if !reflect.DeepEqual(g.invalidated, r.l3.invalidated) {
			h.t.Fatalf("after %d references: CPU %d invalidated set %v, reference L3 map %v", h.n, i, g.invalidated, r.l3.invalidated)
		}
	}
}

// TestDomainMatchesReference drives seeded, skewed Fetch/Load/Store
// streams at 1–4 CPUs, coherence on and off, sampled and not.
func TestDomainMatchesReference(t *testing.T) {
	for cpus := 1; cpus <= 4; cpus++ {
		for _, coherent := range []bool{true, false} {
			for _, sample := range []uint64{1, 3} {
				h := newDiffHarness(t, cpus, coherent, sample)
				rng := rand.New(rand.NewSource(int64(cpus*100) + int64(sample)))
				for i := 0; i < 20000; i++ {
					// Half the references go to a hot eighth of the pool,
					// so lines are shared and migrate between CPUs.
					line := uint64(rng.Intn(diffLines))
					if rng.Intn(2) == 0 {
						line = uint64(rng.Intn(diffLines / 8))
					}
					kind := Load
					switch r := rng.Intn(20); {
					case r < 6:
						kind = Fetch
					case r < 11:
						kind = Store
					}
					h.access(rng.Intn(cpus), line, kind)
					if i%1000 == 999 {
						h.checkState()
					}
				}
				h.checkState()
				// Guard against a vacuous comparison: coherent
				// multiprocessor streams must exercise the coherence path.
				if coherent && cpus > 1 && sample == 1 && (h.coher == 0 || h.remote == 0) {
					t.Fatalf("P=%d: %d coherence misses, %d remote hits; the stream does not exercise coherence", cpus, h.coher, h.remote)
				}
			}
		}
	}
}

// FuzzDomain decodes a configuration byte (CPU count, coherence,
// sampling factor) and a stream of (CPU and kind, line) byte pairs.
func FuzzDomain(f *testing.F) {
	// Ping-pong: CPU 0 reads, CPU 1 writes, CPU 0 reads again (a
	// coherence miss), CPU 1 reads, and CPU 0 writes the shared line.
	f.Add(byte(1), []byte{4, 5, 9, 5, 4, 5, 5, 5, 8, 5, 4, 5})
	f.Add(byte(7), []byte{0, 1, 1, 1, 2, 1, 0, 17, 1, 33, 2, 49, 0, 65, 0, 1})
	rng := rand.New(rand.NewSource(1))
	stream := make([]byte, 400)
	rng.Read(stream)
	f.Add(byte(3), stream)
	f.Fuzz(func(t *testing.T, cfg byte, ops []byte) {
		cpus := 1 + int(cfg%4)
		coherent := cfg&4 == 0
		sample := 1 + uint64(cfg>>3)%3
		h := newDiffHarness(t, cpus, coherent, sample)
		for i := 0; i+1 < len(ops); i += 2 {
			kind := Kind(ops[i] / 4 % 3)
			h.access(int(ops[i]%4)%cpus, uint64(ops[i+1])%diffLines, kind)
		}
		h.checkState()
	})
}
