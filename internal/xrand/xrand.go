// Package xrand supplies the deterministic random-number utilities the
// simulator depends on: splittable per-component seeds, Zipf-distributed
// block selection (database buffer pools exhibit highly skewed reuse), the
// TPC-C NURand non-uniform key generator that ODB's transaction mix uses
// to pick customers and items, and exponential draws for service times.
//
// Every source of randomness in the repository flows through a *Rand
// constructed from an explicit seed, so all simulations are reproducible.
package xrand

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// Rand wraps math/rand with the simulator's distributions. The hot
// uniform draws (Uint64, Int63, Float64, Intn) are shadowed with a
// splitmix64 counter generator: one add and three multiply-xor rounds per
// draw, with no interface indirection. The embedded math/rand generator
// still serves the cold ziggurat distributions (ExpFloat64, NormFloat64)
// and Perm as an independent stream derived from the same seed.
type Rand struct {
	*rand.Rand
	state uint64 // splitmix64 counter for the fast paths
}

// golden is the splitmix64 counter increment, 2^64 divided by the golden
// ratio.
const golden = 0x9e3779b97f4a7c15

// splitmix64 is the output stage of the splitmix64 generator.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a deterministic generator for the given seed.
func New(seed int64) *Rand {
	return &Rand{
		Rand:  rand.New(rand.NewSource(seed)),
		state: splitmix64(uint64(seed) + golden),
	}
}

// Uint64 returns a uniform 64-bit draw (fast path).
func (r *Rand) Uint64() uint64 {
	r.state += golden
	return splitmix64(r.state)
}

// LessBatch sets out[i] = Float64() < p[idx[i]] for every i in out, in
// order: the same outcomes, and the same stream position afterwards, as
// the scalar compare in a loop. idx must be at least as long as out.
func (r *Rand) LessBatch(out []bool, idx []uint32, p []float64) {
	idx = idx[:len(out)]
	state := r.state
	for i, k := range idx {
		state += golden
		out[i] = unitFloat(splitmix64(state)) < p[k]
	}
	r.state = state
}

// Int63 returns a uniform draw in [0, 2^63) (fast path).
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform draw in [0, 1) (fast path).
func (r *Rand) Float64() float64 { return unitFloat(r.Uint64()) }

// unitFloat maps a uniform 64-bit word to [0, 1) using its top 53 bits.
func unitFloat(u uint64) float64 { return float64(u>>11) * (1.0 / (1 << 53)) }

// Intn returns a uniform draw in [0, n); it panics if n <= 0. The bound
// is applied with the fixed-point multiply method; its bias (< n/2^64) is
// far below anything a simulation can resolve.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Split derives an independent child generator identified by id. Children
// of the same parent with different ids produce uncorrelated streams, and
// the derivation is stable across runs.
func (r *Rand) Split(id uint64) *Rand {
	// Mix the id through splitmix64 so that small consecutive ids land far
	// apart in seed space.
	z := splitmix64(id + golden)
	return New(r.Int63() ^ int64(z))
}

// Exp returns an exponentially distributed draw with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// UniformInt returns an integer uniformly distributed in [lo, hi]
// inclusive; it panics if hi < lo.
func (r *Rand) UniformInt(lo, hi int) int {
	if hi < lo {
		panic("xrand: UniformInt with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// NURand implements the TPC-C non-uniform random function
// NURand(A, x, y) = (((random(0,A) | random(x,y)) + C) % (y-x+1)) + x,
// which concentrates accesses on a subset of keys — the access skew that
// makes small-warehouse OLTP configurations contend on hot blocks.
func (r *Rand) NURand(a, x, y, c int) int {
	return (((r.UniformInt(0, a) | r.UniformInt(x, y)) + c) % (y - x + 1)) + x
}

// Zipf draws from {0, 1, ..., n-1} with P(k) proportional to
// 1/(v+k)^s, the parameterization used in cache-behaviour studies (theta
// just below 1 models database block popularity well).
//
// The sampler is an alias table (Vose's method): construction is O(n) and
// each draw costs exactly one Uint64 from the underlying stream plus two
// array reads — no rejection loop, no Exp/Log calls. The reference
// synthesizer draws from these tables for every memory reference, one at
// a time through Next, and for branch sites in batches through NextBatch.
type Zipf struct {
	r      *Rand
	prob   []float64 // scaled acceptance probability per slot (shared, read-only)
	alias  []uint32  // fallback item per slot (shared, read-only)
	n      uint64
	single bool // n == 1: every draw is 0, no stream consumption skew
}

// NewZipf builds a Zipf source over n items with skew theta in (0, ~4).
// The pmf matches math/rand's Zipf parameterization: s > 1 is required
// there, so theta <= 1 maps to s = 1.0001 with a larger v flattening the
// head to emulate sub-1 skew levels acceptably for cache modelling.
//
// The alias table is a pure function of (theta, n), so it is built once
// per process and shared by every Zipf over the same key; each Zipf
// draws from its own stream r.
func NewZipf(r *Rand, theta float64, n uint64) *Zipf {
	if n == 0 {
		panic("xrand: Zipf over zero items")
	}
	if n > math.MaxUint32 {
		panic("xrand: Zipf table too large")
	}
	z := &Zipf{r: r, n: n, single: n == 1}
	if !z.single {
		t := sharedAliasTable(theta, n)
		z.prob, z.alias = t.prob, t.alias
	}
	return z
}

// aliasTable is the immutable alias table of one (theta, n) pair.
type aliasTable struct {
	once  sync.Once
	prob  []float64
	alias []uint32
}

type aliasKey struct {
	theta uint64 // math.Float64bits(theta)
	n     uint64
}

// aliasTables memoizes alias tables process-wide. aliasMu guards only
// the map; each table is built under its own sync.Once, so builds of
// different keys proceed in parallel and callers of one key wait for a
// single build.
var (
	aliasMu     sync.Mutex
	aliasTables = map[aliasKey]*aliasTable{}
)

// sharedAliasTable returns the memoized table for (theta, n), building it
// on first use.
func sharedAliasTable(theta float64, n uint64) *aliasTable {
	key := aliasKey{math.Float64bits(theta), n}
	aliasMu.Lock()
	t := aliasTables[key]
	if t == nil {
		t = &aliasTable{}
		aliasTables[key] = t
	}
	aliasMu.Unlock()
	t.once.Do(func() { t.prob, t.alias = buildAlias(theta, n) })
	return t
}

// buildAlias builds the alias table (Vose's method) for n > 1 items
// weighted w[k] = (v+k)^-s.
func buildAlias(theta float64, n uint64) ([]float64, []uint32) {
	s := theta
	if s <= 1 {
		s = 1.0001
	}
	v := 1.0
	if theta < 1 {
		v = 1 + (1-theta)*float64(n)/4
	}
	w := make([]float64, n)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(v+float64(k), -s)
		total += w[k]
	}
	scale := float64(n) / total
	prob := make([]float64, n)
	alias := make([]uint32, n)
	// Partition slots into under- and over-full; process deterministically
	// in index order so the table (and thus the stream mapping) is stable.
	small := make([]uint32, 0, n)
	large := make([]uint32, 0, n)
	for k := uint64(0); k < n; k++ {
		w[k] *= scale
		if w[k] < 1 {
			small = append(small, uint32(k))
		} else {
			large = append(large, uint32(k))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s0 := small[len(small)-1]
		small = small[:len(small)-1]
		l0 := large[len(large)-1]
		prob[s0] = w[s0]
		alias[s0] = l0
		w[l0] -= 1 - w[s0]
		if w[l0] < 1 {
			large = large[:len(large)-1]
			small = append(small, l0)
		}
	}
	for _, k := range large {
		prob[k] = 1
	}
	for _, k := range small {
		// Numerical leftovers: slot keeps itself.
		prob[k] = 1
	}
	return prob, alias
}

// Next returns the next draw.
func (z *Zipf) Next() uint64 {
	if z.single {
		return 0
	}
	return aliasDraw(z.r.Uint64(), z.n, z.prob, z.alias)
}

// NextBatch fills dst with the next len(dst) draws: the same values, and
// the same stream position afterwards, as len(dst) calls of Next. The
// splitmix counter and the table headers live in locals for the whole
// batch.
func (z *Zipf) NextBatch(dst []uint32) {
	if z.single {
		clear(dst)
		return
	}
	n, prob, alias := z.n, z.prob, z.alias
	state := z.r.state
	for i := range dst {
		state += golden
		dst[i] = uint32(aliasDraw(splitmix64(state), n, prob, alias))
	}
	z.r.state = state
}

// aliasDraw maps one uniform 64-bit word to one of n items. The high
// half of the 128-bit product u*n picks the slot, the low half is an
// independent uniform fraction for the accept/alias test, and the choice
// between the slot and its alias compiles to a conditional move, not a
// branch: at weakly skewed slots the test is a coin flip that a host
// branch predictor cannot learn.
func aliasDraw(u, n uint64, prob []float64, alias []uint32) uint64 {
	hi, lo := bits.Mul64(u, n)
	v := uint64(alias[hi])
	if unitFloat(lo) < prob[hi] {
		v = hi
	}
	return v
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a normal draw with the given mean and standard deviation,
// truncated below at min to keep simulated quantities physical.
func (r *Rand) Normal(mean, stddev, min float64) float64 {
	x := mean + r.NormFloat64()*stddev
	return math.Max(x, min)
}
