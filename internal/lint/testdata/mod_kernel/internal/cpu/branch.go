// Package cpu seeds a per-batch escaping allocation in a miniature
// branch predictor's batch update.
package cpu

// BranchPredictor is a miniature of the gselect predictor.
type BranchPredictor struct {
	table []uint8
	last  *Stats
}

// Stats is a per-batch summary.
type Stats struct{ Mispredicts uint64 }

// NewBranchPredictor is construction-time: its allocations are exempt.
func NewBranchPredictor(table []uint8) *BranchPredictor {
	return &BranchPredictor{table: table, last: &Stats{}}
}

// RecordBatch updates the table branch by branch, then publishes a
// freshly allocated summary: the finding.
func (b *BranchPredictor) RecordBatch(sites []uint32, taken []bool) uint64 {
	var miss uint64
	for i, pc := range sites {
		idx := int(pc) & (len(b.table) - 1)
		if (b.table[idx] >= 2) != taken[i] {
			miss++
		}
	}
	b.last = &Stats{Mispredicts: miss}
	return miss
}
