package xrand

import "testing"

// batchLens are the batch lengths the equivalence tests cut a stream
// into: empty, single, and either side of the 256-entry batch the
// reference synthesizer uses.
var batchLens = []int{0, 1, 255, 256, 257}

// TestNextBatchMatchesNext checks that NextBatch yields the same draws
// as a Next loop and leaves the underlying stream where that loop would,
// for a single-item table (no stream consumption) and for small and
// large ones.
func TestNextBatchMatchesNext(t *testing.T) {
	for _, n := range []uint64{1, 2, 512, 100000} {
		ra, rb := New(11), New(11)
		za, zb := NewZipf(ra, 1.05, n), NewZipf(rb, 1.05, n)
		buf := make([]uint32, 257)
		for round := 0; round < 3; round++ {
			for _, l := range batchLens {
				za.NextBatch(buf[:l])
				for i := 0; i < l; i++ {
					if want := zb.Next(); uint64(buf[i]) != want {
						t.Fatalf("n=%d len=%d: draw %d = %d, Next gives %d", n, l, i, buf[i], want)
					}
				}
				if a, b := ra.Uint64(), rb.Uint64(); a != b {
					t.Fatalf("n=%d len=%d: stream position differs after the batch", n, l)
				}
			}
		}
	}
}

// TestLessBatchMatchesFloat64 checks LessBatch against the scalar
// Float64 compare, including stream position after each batch.
func TestLessBatchMatchesFloat64(t *testing.T) {
	idxRng := New(3)
	p := make([]float64, 64)
	for i := range p {
		p[i] = idxRng.Float64()
	}
	p[0], p[1] = 0, 1
	idx := make([]uint32, 257)
	out := make([]bool, 257)
	ra, rb := New(12), New(12)
	for round := 0; round < 3; round++ {
		for _, l := range batchLens {
			for i := range idx[:l] {
				idx[i] = uint32(idxRng.Intn(len(p)))
			}
			ra.LessBatch(out[:l], idx, p)
			for i := 0; i < l; i++ {
				if want := rb.Float64() < p[idx[i]]; out[i] != want {
					t.Fatalf("len=%d: outcome %d = %v, scalar gives %v", l, i, out[i], want)
				}
			}
			if a, b := ra.Uint64(), rb.Uint64(); a != b {
				t.Fatalf("len=%d: stream position differs after the batch", l)
			}
		}
	}
}

// TestBatchesAllocateNothing pins the batch kernels allocation-free.
func TestBatchesAllocateNothing(t *testing.T) {
	r := New(1)
	z := NewZipf(r.Split(1), 1.05, 512)
	sites := make([]uint32, 256)
	out := make([]bool, 256)
	p := make([]float64, 512)
	if a := testing.AllocsPerRun(100, func() {
		z.NextBatch(sites)
		r.LessBatch(out, sites, p)
	}); a != 0 {
		t.Fatalf("batch kernels allocate %.1f times per call", a)
	}
}
