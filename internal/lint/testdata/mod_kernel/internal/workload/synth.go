// Package workload seeds a per-chunk allocation in the branch loop of a
// miniature reference synthesizer; its construction stays exempt.
package workload

import "odbscale/internal/cpu"

// Synth is a miniature of the reference synthesizer.
type Synth struct {
	bp    *cpu.BranchPredictor
	sites [256]uint32
	taken [256]bool
}

// NewSynth is construction-time: its allocations are exempt.
func NewSynth() *Synth {
	return &Synth{bp: cpu.NewBranchPredictor(make([]uint8, 1<<13))}
}

// Run resolves n branches: the fixed scratch arrays are clean, the
// fresh slice grown by append is a finding.
func (s *Synth) Run(n int) uint64 {
	var mispred uint64
	for n > 0 {
		k := min(n, len(s.sites))
		mispred += s.bp.RecordBatch(s.sites[:k], s.taken[:k])
		n -= k
	}
	var log []uint64
	log = append(log, mispred)
	return log[0]
}
