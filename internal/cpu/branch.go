// Package cpu models the processor core: a gshare branch predictor, a data
// TLB, and the paper's CPI accounting — the fixed stall costs of Table 3
// and the component formulas of Table 4 that decompose measured CPI into
// instruction, branch, TLB, trace-cache, L2, L3 and "other" contributions.
package cpu

// BranchPredictor is a gselect predictor (Pan/So/Rahmeh): the branch PC
// concatenated with a short global history indexes a table of 2-bit
// saturating counters, so each branch site owns a private set of history
// contexts as long as the table is large enough. The history length is
// configurable; short histories limit destructive aliasing between
// unrelated branches.
type BranchPredictor struct {
	history  uint64
	histBits uint
	table    []uint8 // 2^bits counters

	predictions uint64
	mispredicts uint64
}

// NewBranchPredictor builds a gshare predictor with 2^bits counters and
// histBits bits of global history folded into the index.
func NewBranchPredictor(bits, histBits uint) *BranchPredictor {
	if bits == 0 || bits > 24 {
		panic("cpu: branch predictor bits out of range")
	}
	if histBits > bits {
		panic("cpu: history longer than index")
	}
	t := make([]uint8, 1<<bits)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &BranchPredictor{histBits: histBits, table: t}
}

// Record feeds one resolved branch (identified by its PC) with its actual
// outcome and reports whether the predictor had predicted it correctly.
func (b *BranchPredictor) Record(pc uint64, taken bool) bool {
	var miss uint64
	b.history, miss = step(b.table, b.histBits, b.history, pc, b2u(taken))
	b.predictions++
	b.mispredicts += miss
	return miss == 0
}

// RecordBatch feeds the resolved branches sites[i] with outcomes taken[i]
// in order, exactly as a Record loop would, and returns how many of them
// the predictor mispredicted. taken must be at least as long as sites.
// History and table stay in locals for the whole batch.
func (b *BranchPredictor) RecordBatch(sites []uint32, taken []bool) (mispredicts uint64) {
	taken = taken[:len(sites)]
	table, histBits, hist := b.table, b.histBits, b.history
	for i, pc := range sites {
		var miss uint64
		hist, miss = step(table, histBits, hist, uint64(pc), b2u(taken[i]))
		mispredicts += miss
	}
	b.history = hist
	b.predictions += uint64(len(sites))
	b.mispredicts += mispredicts
	return mispredicts
}

// satNext is the 2-bit saturating counter's transition table, indexed by
// counter<<1 | outcome: a taken branch counts up to 3, a not-taken one
// down to 0.
var satNext = [8]uint8{0, 1, 0, 2, 1, 3, 2, 3}

// step resolves one branch with outcome t (0 or 1) against the counter
// that pc and the low histBits bits of hist select, updates that
// counter, and returns the new history and 1 if the counter's prediction
// (its high bit) was wrong. The table length is a power of two and
// histBits is at most 24, so the masks below change no index. Nothing in
// step branches on the outcome: the outcomes of weakly biased sites are
// coin flips a host branch predictor cannot learn.
func step(table []uint8, histBits uint, hist, pc, t uint64) (newHist, miss uint64) {
	hb := histBits & 63
	idx := ((pc << hb) | (hist & (1<<hb - 1))) & uint64(len(table)-1)
	ctr := table[idx]
	table[idx] = satNext[(ctr<<1|uint8(t))&7]
	return hist<<1 | t, uint64(ctr>>1) ^ t
}

// b2u converts an outcome to 0 or 1 without a branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// MispredictRate returns mispredictions per prediction.
func (b *BranchPredictor) MispredictRate() float64 {
	if b.predictions == 0 {
		return 0
	}
	return float64(b.mispredicts) / float64(b.predictions)
}

// Counts returns total predictions and mispredictions.
func (b *BranchPredictor) Counts() (predictions, mispredicts uint64) {
	return b.predictions, b.mispredicts
}

// ResetStats clears the counters, preserving predictor state.
func (b *BranchPredictor) ResetStats() { b.predictions, b.mispredicts = 0, 0 }
