package txtrace

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"odbscale/internal/odb"
	"odbscale/internal/sim"
)

// msPerCycle returns the milliseconds per cycle for the dump's machine,
// falling back to 1 (raw cycles) when the meta carries no frequency.
func (d *Dump) msPerCycle() float64 {
	if d.Meta.FreqHz <= 0 {
		return 1
	}
	return 1e3 / d.Meta.FreqHz
}

// shares converts a breakdown into fractional component shares of the
// given total: cpu, lock, io, busy, queue, other (unattributed CPU).
func shares(b *Breakdown, total sim.Time) (cpu, lock, io, busy, queue, other float64) {
	if total == 0 {
		return
	}
	t := float64(total)
	return float64(b.CPU()) / t, float64(b.LockTotal()) / t, float64(b.IO) / t,
		float64(b.Busy) / t, float64(b.Queue) / t, float64(b.CPUOther) / t
}

// WriteReport renders the wait-state breakdown: per transaction type,
// the measured population's latency quantiles and its mean latency
// decomposition into cpu / lock / io / busy / queue / other shares,
// followed by the critical path of the slowest sampled transaction of
// each type.
func (d *Dump) WriteReport(w io.Writer) error {
	m := d.Meta
	fmt.Fprintf(w, "Wait-state breakdown — W=%d C=%d P=%d seed=%d (%d measured txns)\n",
		m.Warehouses, m.Clients, m.Processors, m.Seed, m.MeasuredTxns)
	fmt.Fprintf(w, "sampling: head 1/%d (cap %d) + %d slowest per type; %d traces retained\n\n",
		m.HeadEvery, m.HeadCap, m.TailK, len(d.Traces))

	ms := d.msPerCycle()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "type\tcount\tp50ms\tp95ms\tp99ms\tcpu%\tlock%\tio%\tbusy%\tqueue%\tother%\t")
	var totalSum Breakdown
	var totalLat sim.Time
	var totalCount uint64
	for _, ts := range d.Types {
		if ts.Count == 0 {
			continue
		}
		cpu, lock, io, busy, queue, other := shares(&ts.Sum, ts.SumLatency)
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t\n",
			ts.Type, ts.Count, ts.P50*ms, ts.P95*ms, ts.P99*ms,
			cpu*100, lock*100, io*100, busy*100, queue*100, other*100)
		totalSum.merge(&ts.Sum)
		totalLat += ts.SumLatency
		totalCount += ts.Count
	}
	if totalCount > 0 {
		cpu, lock, io, busy, queue, other := shares(&totalSum, totalLat)
		fmt.Fprintf(tw, "all\t%d\t\t\t\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t\n",
			totalCount, cpu*100, lock*100, io*100, busy*100, queue*100, other*100)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// One exemplar per type: the slowest sampled transaction's critical
	// path, each entry's decomposition summing to its measured latency.
	for ti := range d.Types {
		var slow *Trace
		for i := range d.Traces {
			tr := &d.Traces[i]
			if tr.Name != d.Types[ti].Type {
				continue
			}
			if slow == nil || tr.Latency > slow.Latency ||
				(tr.Latency == slow.Latency && tr.Seq < slow.Seq) {
				slow = tr
			}
		}
		if slow == nil {
			continue
		}
		fmt.Fprintf(w, "\nslowest %s (seq %d, proc %d): %.3f ms\n",
			slow.Name, slow.Seq, slow.Proc, float64(slow.Latency)*ms)
		for _, e := range CriticalPath(slow) {
			fmt.Fprintf(w, "  %6.1f%%  %10.3f ms  %s\n", e.Share*100, float64(e.Cycles)*ms, e.Label)
		}
	}
	return nil
}

// PathEntry is one critical-path component of a span tree.
type PathEntry struct {
	Label  string   `json:"label"`
	Cycles sim.Time `json:"cycles"`
	Share  float64  `json:"share"`
}

// CriticalPath extracts the trace's critical path. A transaction is a
// single chain of spans, so the critical path is the whole window; the
// extraction aggregates it by component label and orders by cost, which
// answers "what would shortening help most". Entries sum to the
// measured latency exactly.
func CriticalPath(tr *Trace) []PathEntry {
	b := tr.Breakdown()
	entries := make([]PathEntry, 0, int(odb.NumPhases)+odb.NumLockClasses+4)
	add := func(label string, c sim.Time) {
		if c > 0 {
			entries = append(entries, PathEntry{Label: label, Cycles: c})
		}
	}
	for p := range b.CPUPhase {
		add("cpu:"+odb.Phase(p).String(), b.CPUPhase[p])
	}
	add("cpu:other", b.CPUOther)
	for c := range b.Lock {
		add("lock:"+odb.LockClass(c).String(), b.Lock[c])
	}
	add("io", b.IO)
	add("busy", b.Busy)
	add("queue", b.Queue)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Cycles != entries[j].Cycles {
			return entries[i].Cycles > entries[j].Cycles
		}
		return entries[i].Label < entries[j].Label
	})
	if tr.Latency > 0 {
		for i := range entries {
			entries[i].Share = float64(entries[i].Cycles) / float64(tr.Latency)
		}
	}
	return entries
}

// TopSlowest returns up to n retained traces by descending latency
// (ties by commit order); none for n ≤ 0.
func (d *Dump) TopSlowest(n int) []*Trace {
	idx := make([]*Trace, len(d.Traces))
	for i := range d.Traces {
		idx[i] = &d.Traces[i]
	}
	sort.Slice(idx, func(i, j int) bool {
		if idx[i].Latency != idx[j].Latency {
			return idx[i].Latency > idx[j].Latency
		}
		return idx[i].Seq < idx[j].Seq
	})
	if n < len(idx) {
		idx = idx[:max(n, 0)]
	}
	return idx
}

// WriteTop renders the n slowest sampled transactions with their
// critical-path head.
func (d *Dump) WriteTop(w io.Writer, n int) error {
	ms := d.msPerCycle()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "seq\ttype\tproc\tlatency ms\tsegs\tdominant\t")
	for _, tr := range d.TopSlowest(n) {
		dom := "-"
		if path := CriticalPath(tr); len(path) > 0 {
			dom = fmt.Sprintf("%s %.1f%%", path[0].Label, path[0].Share*100)
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%.3f\t%d\t%s\t\n",
			tr.Seq, tr.Name, tr.Proc, float64(tr.Latency)*ms, len(tr.Segs), dom)
	}
	return tw.Flush()
}

// WriteDiff compares two dumps per transaction type: latency quantile
// movement and wait-state share deltas. Attribution shifts are
// findings, not failures — callers should report and exit zero.
func WriteDiff(w io.Writer, a, b *Dump) error {
	amap := make(map[string]*TypeStat, len(a.Types))
	for i := range a.Types {
		amap[a.Types[i].Type] = &a.Types[i]
	}
	msA, msB := a.msPerCycle(), b.msPerCycle()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "type\tp99ms A\tp99ms B\tΔcpu%\tΔlock%\tΔio%\tΔbusy%\tΔqueue%\tΔother%\t")
	for i := range b.Types {
		tb := &b.Types[i]
		ta, ok := amap[tb.Type]
		if !ok || ta.Count == 0 || tb.Count == 0 {
			continue
		}
		ac, al, ai, abz, aq, ao := shares(&ta.Sum, ta.SumLatency)
		bc, bl, bi, bbz, bq, bo := shares(&tb.Sum, tb.SumLatency)
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%+.1f\t%+.1f\t%+.1f\t%+.1f\t%+.1f\t%+.1f\t\n",
			tb.Type, ta.P99*msA, tb.P99*msB,
			(bc-ac)*100, (bl-al)*100, (bi-ai)*100, (bbz-abz)*100, (bq-aq)*100, (bo-ao)*100)
	}
	return tw.Flush()
}
