package cpu

import (
	"reflect"
	"testing"

	"odbscale/internal/xrand"
)

// refPredictor is the predictor's update rule written out with
// branches, as a reference for the branch-free step.
type refPredictor struct {
	history, histBits, bits uint64
	table                   []uint8
}

func (r *refPredictor) record(pc uint64, taken bool) bool {
	idx := ((pc << r.histBits) | (r.history & ((1 << r.histBits) - 1))) & ((1 << r.bits) - 1)
	ctr := r.table[idx]
	correct := (ctr >= 2) == taken
	if taken && ctr < 3 {
		r.table[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		r.table[idx] = ctr - 1
	}
	r.history <<= 1
	if taken {
		r.history |= 1
	}
	return correct
}

// branchStream draws n branch sites from a Zipf over 512 sites and an
// outcome per site with a per-site bias, like reference synthesis does.
func branchStream(seed int64, n int) ([]uint32, []bool) {
	r := xrand.New(seed)
	z := xrand.NewZipf(r.Split(1), 1.05, 512)
	bias := make([]float64, 512)
	for i := range bias {
		bias[i] = []float64{0.03, 0.97, 0.70, 0.50}[r.Intn(4)]
	}
	sites := make([]uint32, n)
	taken := make([]bool, n)
	z.NextBatch(sites)
	r.LessBatch(taken, sites, bias)
	return sites, taken
}

// TestRecordMatchesReference checks Record, call by call, against the
// branching update rule, for several table sizes and history lengths.
func TestRecordMatchesReference(t *testing.T) {
	sites, taken := branchStream(1, 20000)
	for _, g := range []struct{ bits, hist uint }{{13, 2}, {12, 4}, {10, 0}, {6, 6}, {24, 9}} {
		bp := NewBranchPredictor(g.bits, g.hist)
		ref := &refPredictor{histBits: uint64(g.hist), bits: uint64(g.bits), table: append([]uint8(nil), bp.table...)}
		for i, s := range sites {
			pc := uint64(s) * 0x9e37 // spread sites past the index width
			if got, want := bp.Record(pc, taken[i]), ref.record(pc, taken[i]); got != want {
				t.Fatalf("bits=%d hist=%d: branch %d: Record %v, reference %v", g.bits, g.hist, i, got, want)
			}
		}
		if bp.history != ref.history || !reflect.DeepEqual(bp.table, ref.table) {
			t.Fatalf("bits=%d hist=%d: state diverged from the reference", g.bits, g.hist)
		}
	}
}

// TestRecordBatchMatchesRecord checks RecordBatch against a Record loop:
// same table, history, prediction count and mispredictions, for batch
// lengths around the synthesizer's 256.
func TestRecordBatchMatchesRecord(t *testing.T) {
	sites, taken := branchStream(2, 6*(0+1+255+256+257))
	a, b := NewBranchPredictor(13, 2), NewBranchPredictor(13, 2)
	for off := 0; off < len(sites); {
		for _, l := range []int{0, 1, 255, 256, 257} {
			s, tk := sites[off:off+l], taken[off:off+l]
			off += l
			got := a.RecordBatch(s, tk)
			var want uint64
			for i, pc := range s {
				if !b.Record(uint64(pc), tk[i]) {
					want++
				}
			}
			if got != want {
				t.Fatalf("batch of %d: %d mispredicts, Record loop %d", l, got, want)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("batch of %d: predictor state diverged from the Record loop", l)
			}
		}
	}
}

func benchmarkBranches(b *testing.B, run func(bp *BranchPredictor, sites []uint32, taken []bool)) {
	sites, taken := branchStream(3, 1<<16)
	bp := NewBranchPredictor(13, 2)
	if a := testing.AllocsPerRun(10, func() { run(bp, sites[:256], taken[:256]) }); a != 0 {
		b.Fatalf("%.1f allocations per batch, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(bp, sites, taken)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sites)), "ns/branch")
}

// BenchmarkRecord is the one-branch-at-a-time predictor update.
func BenchmarkRecord(b *testing.B) {
	benchmarkBranches(b, func(bp *BranchPredictor, sites []uint32, taken []bool) {
		for i, s := range sites {
			bp.Record(uint64(s), taken[i])
		}
	})
}

// BenchmarkRecordBatch is the same stream through RecordBatch in the
// synthesizer's 256-branch batches.
func BenchmarkRecordBatch(b *testing.B) {
	benchmarkBranches(b, func(bp *BranchPredictor, sites []uint32, taken []bool) {
		for off := 0; off < len(sites); off += 256 {
			end := min(off+256, len(sites))
			bp.RecordBatch(sites[off:end], taken[off:end])
		}
	})
}
