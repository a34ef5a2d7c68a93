package workload

import (
	"reflect"
	"testing"

	"odbscale/internal/bus"
	"odbscale/internal/cache"
	"odbscale/internal/cpu"
	"odbscale/internal/odb"
	"odbscale/internal/xrand"
)

// scalarBranches is the one-branch-at-a-time loop the batched kernel
// replaced: a site from branchZ, an outcome from rng, a Record.
func scalarBranches(rng *xrand.Rand, z *xrand.Zipf, bp *cpu.BranchPredictor, n uint64) (mispred uint64) {
	for i := uint64(0); i < n; i++ {
		site := z.Next()
		if !bp.Record(site, rng.Float64() < branchBiasTab[site]) {
			mispred++
		}
	}
	return mispred
}

// kernelPair builds a synthesizer's branch state and an identical copy
// for the scalar loop.
func kernelPair(seed int64, histBits uint) (s *Synth, bp *cpu.BranchPredictor, rng *xrand.Rand, z *xrand.Zipf, bpRef *cpu.BranchPredictor) {
	newState := func() (*xrand.Rand, *xrand.Zipf, *cpu.BranchPredictor) {
		r := xrand.New(seed)
		return r, xrand.NewZipf(r.Split(6), 1.05, 512), cpu.NewBranchPredictor(13, histBits)
	}
	r, bz, b := newState()
	rng, z, bpRef = newState()
	return &Synth{rng: r, branchZ: bz}, b, rng, z, bpRef
}

// checkKernel runs n branches through the batched kernel and the scalar
// loop and fails unless mispredictions, predictor state and both stream
// positions agree.
func checkKernel(t *testing.T, seed int64, n uint64, histBits uint) {
	t.Helper()
	s, bp, rng, z, bpRef := kernelPair(seed, histBits)
	got := s.branches(bp, n)
	want := scalarBranches(rng, z, bpRef, n)
	if got != want {
		t.Fatalf("seed=%d n=%d hist=%d: kernel %d mispredicts, scalar %d", seed, n, histBits, got, want)
	}
	if !reflect.DeepEqual(bp, bpRef) {
		t.Fatalf("seed=%d n=%d hist=%d: predictor state diverged", seed, n, histBits)
	}
	if s.rng.Uint64() != rng.Uint64() || s.branchZ.Next() != z.Next() {
		t.Fatalf("seed=%d n=%d hist=%d: stream positions diverged", seed, n, histBits)
	}
}

// FuzzBranchKernel compares the batched branch kernel with the scalar
// loop over seed, branch count and predictor history length. The seed
// corpus covers the batch boundaries and a long run.
func FuzzBranchKernel(f *testing.F) {
	for _, n := range []uint16{0, 1, 255, 256, 257, 512, 513, 65535} {
		f.Add(int64(1), n, uint8(2))
	}
	f.Add(int64(-9), uint16(4096), uint8(0))
	f.Add(int64(42), uint16(4096), uint8(13))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, histBits uint8) {
		checkKernel(t, seed, uint64(n), uint(histBits%14))
	})
}

// TestBranchZipfOwnsItsStream fails if the branch-site sampler ever
// shares a generator with the outcome draws: the kernel draws all sites
// of a batch before any outcome, which is only the scalar order when
// the two streams are independent.
func TestBranchZipfOwnsItsStream(t *testing.T) {
	a, b := testSynth(1, 5), testSynth(1, 5)
	for i := 0; i < 10; i++ {
		a.rng.Uint64()
	}
	for i := 0; i < 100; i++ {
		if a.branchZ.Next() != b.branchZ.Next() {
			t.Fatal("drawing from the synthesizer's generator moved the branch-site stream")
		}
	}
	c, d := testSynth(1, 6), testSynth(1, 6)
	for i := 0; i < 100; i++ {
		c.branchZ.Next()
	}
	if c.rng.Uint64() != d.rng.Uint64() {
		t.Fatal("drawing branch sites moved the synthesizer's generator")
	}
}

// TestRunAllocatesNothing pins Synth.Run, branch kernel included,
// allocation-free once warm.
func TestRunAllocatesNothing(t *testing.T) {
	s := testSynth(1, 3)
	spec := ChunkSpec{Instr: 200_000, Blocks: blocks(1, 2, 3, 4)}
	s.Run(spec)
	if a := testing.AllocsPerRun(20, func() { s.Run(spec) }); a != 0 {
		t.Fatalf("Run allocates %.1f times per chunk", a)
	}
}

// benchmarkSynthRun runs user-mode chunks over a block universe of the
// given size with the given structural hot set and reports host
// nanoseconds per simulated branch.
func benchmarkSynthRun(b *testing.B, hotSetBytes, universe int) {
	g := ScaledGeometry(cache.XeonGeometry(1), testScale)
	cfg := DefaultConfig(testScale)
	cfg.HotSetBytes = hotSetBytes
	s := New(cfg, cache.NewDomain(g, 1, true), bus.New(bus.DefaultConfig(), float64(testScale)), xrand.New(1))
	rng := xrand.New(2)
	specs := make([]ChunkSpec, 64)
	for i := range specs {
		bl := make([]odb.BlockID, 10)
		for j := range bl {
			bl[j] = odb.BlockID(rng.Intn(universe))
		}
		specs[i] = ChunkSpec{ProcID: i % 8, Instr: 100_000, Blocks: bl}
	}
	for _, sp := range specs {
		s.Run(sp)
	}
	if a := testing.AllocsPerRun(10, func() { s.Run(specs[0]) }); a != 0 {
		b.Fatalf("%.1f allocations per chunk, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var branches uint64
	for i := 0; i < b.N; i++ {
		branches += s.Run(specs[i%len(specs)]).Branches
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(branches), "ns/branch")
}

// BenchmarkSynthRun covers a cached geometry (the hot set and block
// universe fit the scaled L3) and a scaled one (both far exceed it).
func BenchmarkSynthRun(b *testing.B) {
	b.Run("cached", func(b *testing.B) { benchmarkSynthRun(b, 200<<10, 2_000) })
	b.Run("scaled", func(b *testing.B) { benchmarkSynthRun(b, 16<<20, 200_000) })
}
