// Package system provides the hot-path root of the kernel fixture:
// reference synthesis reached from Run is per-chunk.
package system

import "odbscale/internal/workload"

// Run drives one chunk per call.
func Run(s *workload.Synth, chunks int) {
	for i := 0; i < chunks; i++ {
		s.Run(100)
	}
}
