package campaign

// bounds frames one client-tuner search.
type bounds struct {
	// Min and Max bound the client counts considered.
	Min, Max int
	// Start is the first count probed. A warm start (Start > Min, e.g.
	// the tuned count of the previous, smaller warehouse point) lets the
	// search confirm a plateau with a single probe instead of repeating
	// the exponential climb from Min.
	Start int
	// Target is the utilization the tuned configuration must reach.
	Target float64
}

// tune finds the smallest client count in [Min, Max] whose probed
// utilization reaches Target, assuming utilization is non-decreasing in
// the client count (the paper's regime: more clients mask more disk
// latency). If even Max cannot reach the target — an I/O-bound setup —
// Max is returned as the best effort, matching the paper's treatment of
// its 1200-warehouse point.
//
// The search probes Start first. If Start satisfies the target it
// checks Start-1: a failure there proves Start minimal (a warm-started
// plateau point costs exactly two probes), while a pass binary-refines
// over [Min, Start-1]. If Start falls short it doubles upward from
// Start to bracket the target and binary-refines inside the bracket,
// exactly the exponential-plus-binary search of the paper's Table 1
// methodology. Probe results are expected to be memoized by the caller;
// tune itself never asks for the same count twice.
func tune(probe func(clients int) (float64, error), b bounds) (int, error) {
	if b.Min < 1 {
		b.Min = 1
	}
	if b.Max < b.Min {
		b.Max = b.Min
	}
	start := b.Start
	if start < b.Min {
		start = b.Min
	}
	if start > b.Max {
		start = b.Max
	}

	refine := func(lo, hi int) (int, error) {
		// Invariant: hi satisfies the target, lo does not (lo may sit one
		// below Min as an unprobed sentinel).
		for lo+1 < hi {
			mid := (lo + hi) / 2
			u, err := probe(mid)
			if err != nil {
				return 0, err
			}
			if u >= b.Target {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi, nil
	}

	u, err := probe(start)
	if err != nil {
		return 0, err
	}
	if u >= b.Target {
		if start == b.Min {
			return start, nil
		}
		// One probe below Start decides between a plateau (Start is
		// minimal) and a refinement over what is left beneath it.
		below, err := probe(start - 1)
		if err != nil {
			return 0, err
		}
		if below < b.Target {
			return start, nil
		}
		return refine(b.Min-1, start-1)
	}
	// Exponential climb for an upper bound.
	lo, hi := start, start
	for hi < b.Max {
		lo = hi
		hi *= 2
		if hi > b.Max {
			hi = b.Max
		}
		if u, err = probe(hi); err != nil {
			return 0, err
		}
		if u >= b.Target {
			break
		}
	}
	if u < b.Target {
		return b.Max, nil // I/O bound: best effort
	}
	return refine(lo, hi)
}
