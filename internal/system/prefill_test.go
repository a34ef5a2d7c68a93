package system

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"odbscale/internal/odb"
)

// refPrefillOrder is the ranking prefill used before prefillOrder: a
// sort.Slice over the count map's entries and a map lookup per extent
// block. It is the oracle for TestPrefillOrderMatchesReference.
func refPrefillOrder(freq map[odb.BlockID]uint32, base odb.BlockID, total, capacity uint64) []odb.BlockID {
	var out []odb.BlockID
	type bf struct {
		b odb.BlockID
		f uint32
	}
	ranked := make([]bf, 0, len(freq))
	for b, f := range freq {
		ranked = append(ranked, bf{b, f})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].f != ranked[j].f {
			return ranked[i].f > ranked[j].f
		}
		return ranked[i].b < ranked[j].b
	})
	if uint64(len(ranked)) > capacity {
		ranked = ranked[:capacity]
	}
	if extra := capacity - uint64(len(ranked)); extra > 0 {
		for b := uint64(0); b < total && extra > 0; b++ {
			if _, seen := freq[base+odb.BlockID(b)]; !seen {
				out = append(out, base+odb.BlockID(b))
				extra--
			}
		}
	}
	for i := len(ranked) - 1; i >= 0; i-- {
		out = append(out, ranked[i].b)
	}
	return out
}

func TestPrefillOrderMatchesReference(t *testing.T) {
	type tc struct {
		name            string
		freq            map[odb.BlockID]uint32
		base            odb.BlockID
		total, capacity uint64
	}
	cases := []tc{
		{"ties", map[odb.BlockID]uint32{105: 2, 101: 2, 103: 2, 102: 1, 104: 1, 110: 3}, 100, 20, 8},
		{"outside-extent", map[odb.BlockID]uint32{5: 4, 99: 1, 100: 1, 130: 7, 1 << 40: 2, 107: 3}, 100, 30, 12},
		{"fewer-sampled-than-capacity", map[odb.BlockID]uint32{3: 1, 9: 5, 4: 5}, 0, 50, 10},
		{"more-sampled-than-capacity", map[odb.BlockID]uint32{1: 1, 2: 2, 3: 3, 4: 3, 5: 1, 6: 2, 7: 9}, 0, 10, 4},
		{"sampled-equals-capacity", map[odb.BlockID]uint32{1: 1, 2: 2, 3: 3}, 0, 10, 3},
		{"capacity-covers-unsampled-exactly", map[odb.BlockID]uint32{0: 1, 2: 1, 4: 1}, 0, 6, 6},
		{"empty-sample", map[odb.BlockID]uint32{}, 7, 9, 5},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		base := odb.BlockID(rng.Intn(1000))
		total := uint64(1 + rng.Intn(400))
		freq := map[odb.BlockID]uint32{}
		for n := rng.Intn(300); n > 0; n-- {
			// Mostly inside the extent, some below and above it.
			id := base + odb.BlockID(rng.Intn(int(total)+40)) - 20
			freq[id] += uint32(1 + rng.Intn(3))
		}
		cases = append(cases, tc{fmt.Sprintf("random-%d", i), freq, base, total, uint64(1 + rng.Intn(int(total)))})
	}
	for _, c := range cases {
		var got []odb.BlockID
		prefillOrder(c.freq, c.base, c.total, c.capacity, func(b odb.BlockID) { got = append(got, b) })
		want := refPrefillOrder(c.freq, c.base, c.total, c.capacity)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: install order\n got %v\nwant %v", c.name, got, want)
		}
	}
}

// BenchmarkPrefill times a run's set-up: building the machine and
// prefilling its buffer cache (the W=1200 image exceeds the cache, so it
// samples and ranks), then one measured transaction.
func BenchmarkPrefill(b *testing.B) {
	for _, w := range []int{10, 200, 1200} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			cfg := DefaultConfig(w, HeuristicClients(w, 1), 1)
			cfg.WarmupTxns, cfg.MeasureTxns = 0, 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
