package cache

import "fmt"

// refDomain and refCache are the coherence domain and cache as they were
// before the coherence decision moved to the Hierarchy: every level keeps
// its own invalidated-line map and event counters. They are kept
// verbatim (types renamed, the parallel snoop lanes left out) as the
// oracle for the differential tests in diff_test.go.

// refStats counts the events observed by one cache.
type refStats struct {
	Accesses        uint64
	Hits            uint64
	Misses          uint64
	Evictions       uint64
	Writebacks      uint64 // evictions of Modified lines
	Invalidates     uint64 // lines killed by remote writes
	CoherenceMisses uint64 // misses to lines previously invalidated remotely
}

// MissRatio returns misses per access.
func (s refStats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// refCache is a single set-associative cache with LRU replacement.
type refCache struct {
	name     string
	sets     [][]way
	ways     int
	lineBits uint
	setMask  uint64
	tick     uint64
	stats    refStats
	// invalidated remembers lines removed by remote writes so the next
	// miss on them can be classified as a coherence miss. Entries are
	// consumed on the classifying miss.
	invalidated map[uint64]struct{}
}

// newRefCache builds a cache of the given total size in bytes, associativity
// and line size. Size must be an exact multiple of ways*lineSize and the
// set count must be a power of two.
func newRefCache(name string, size, ways, lineSize int) *refCache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	if size%(ways*lineSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*line %d", name, size, ways*lineSize))
	}
	nsets := size / (ways * lineSize)
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, nsets))
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	c := &refCache{
		name:        name,
		sets:        make([][]way, nsets),
		ways:        ways,
		lineBits:    lineBits,
		setMask:     uint64(nsets - 1),
		invalidated: make(map[uint64]struct{}),
	}
	for i := range c.sets {
		c.sets[i] = make([]way, ways)
	}
	return c
}

// Line returns the line address containing addr.
func (c *refCache) Line(addr Addr) uint64 { return uint64(addr) >> c.lineBits }

func (c *refCache) setOf(line uint64) []way { return c.sets[line&c.setMask] }

// Probe reports whether line is present and in what state, without
// touching LRU or statistics.
func (c *refCache) Probe(line uint64) (State, bool) {
	for i := range c.setOf(line) {
		w := &c.setOf(line)[i]
		if w.state != Invalid && w.tag == line {
			return w.state, true
		}
	}
	return Invalid, false
}

// Access looks up a line, updating LRU and hit/miss statistics. On a miss
// the line is inserted in the given state and the victim (if any) is
// returned. write upgrades the final state to Modified.
// coherMiss reports that the miss hit a line previously invalidated by a
// remote writer.
func (c *refCache) Access(line uint64, write bool, fillState State) (hit bool, victim Evicted, coherMiss bool) {
	c.stats.Accesses++
	c.tick++
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.tag == line {
			c.stats.Hits++
			w.touch = c.tick
			if write {
				w.state = Modified
			}
			return true, Evicted{}, false
		}
	}
	c.stats.Misses++
	// The empty-map guard keeps the single-processor (and low-sharing)
	// fast path free of a per-miss map probe.
	if len(c.invalidated) != 0 {
		if _, ok := c.invalidated[line]; ok {
			delete(c.invalidated, line)
			c.stats.CoherenceMisses++
			coherMiss = true
		}
	}
	// Choose a victim: an invalid way if available, else LRU.
	victimIdx := 0
	for i := range set {
		if set[i].state == Invalid {
			victimIdx = i
			goto fill
		}
		if set[i].touch < set[victimIdx].touch {
			victimIdx = i
		}
	}
	victim = Evicted{Line: set[victimIdx].tag, Dirty: set[victimIdx].state == Modified, Valid: true}
	c.stats.Evictions++
	if victim.Dirty {
		c.stats.Writebacks++
	}
fill:
	st := fillState
	if write {
		st = Modified
	}
	set[victimIdx] = way{tag: line, state: st, touch: c.tick}
	return false, victim, coherMiss
}

// Invalidate removes line if present, recording it for coherence-miss
// classification. It reports whether the line was present and dirty.
func (c *refCache) Invalidate(line uint64) (present, dirty bool) {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.tag == line {
			dirty = w.state == Modified
			w.state = Invalid
			c.stats.Invalidates++
			c.invalidated[line] = struct{}{}
			return true, dirty
		}
	}
	return false, false
}

// Downgrade moves line to Shared if present (a remote reader snooped it),
// reporting presence and whether it was dirty (requiring a writeback).
func (c *refCache) Downgrade(line uint64) (present, dirty bool) {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.tag == line {
			dirty = w.state == Modified
			w.state = Shared
			return true, dirty
		}
	}
	return false, false
}

// SetState forces the state of line if present, reporting whether it was.
// The coherence domain uses it for upgrades and L2→L3 writebacks.
func (c *refCache) SetState(line uint64, st State) bool {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.tag == line {
			w.state = st
			return true
		}
	}
	return false
}

// Stats returns a copy of the counters.
func (c *refCache) Stats() refStats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents, used
// at the end of the warm-up period.
func (c *refCache) ResetStats() { c.stats = refStats{} }

// Name returns the cache's configured name.
func (c *refCache) Name() string { return c.name }

// refHierarchy is the private cache stack of one CPU.
type refHierarchy struct {
	CPU    int
	tc     *refCache
	l2     *refCache
	l3     *refCache
	domain *refDomain
}

// refDomain couples the L3 caches of all CPUs with MESI snooping. Coherence
// may be disabled to ablate its cost (every fill is then Exclusive and no
// remote copies are invalidated).
type refDomain struct {
	Geometry  Geometry
	Coherent  bool
	CPUs      []*refHierarchy
	sampleMod uint64
}

// newRefDomain builds hierarchies for n CPUs sharing one coherence domain.
func newRefDomain(g Geometry, n int, coherent bool) *refDomain {
	if g.Sample == 0 {
		g.Sample = 1
	}
	d := &refDomain{Geometry: g, Coherent: coherent, sampleMod: g.Sample}
	for i := 0; i < n; i++ {
		h := &refHierarchy{
			CPU:    i,
			tc:     newRefCache("tc", g.scale(g.TCSize, g.TCWays), g.TCWays, g.LineSize),
			l2:     newRefCache("l2", g.scale(g.L2Size, g.L2Ways), g.L2Ways, g.LineSize),
			l3:     newRefCache("l3", g.scale(g.L3Size, g.L3Ways), g.L3Ways, g.LineSize),
			domain: d,
		}
		d.CPUs = append(d.CPUs, h)
	}
	return d
}

// sampled reports whether a line is inside the simulated sample. The hash
// spreads consecutive lines so that any dense region is sampled evenly.
func (d *refDomain) sampled(line uint64) bool {
	if d.sampleMod == 1 {
		return true
	}
	z := line * 0x9e3779b97f4a7c15
	z ^= z >> 29
	return z%d.sampleMod == 0
}

// Access sends one reference through cpu's hierarchy. Addresses are byte
// addresses; the hierarchy handles line extraction and sampling.
func (d *refDomain) Access(cpu int, addr Addr, kind Kind) AccessResult {
	h := d.CPUs[cpu]
	line := h.l3.Line(addr)
	if !d.sampled(line) {
		return AccessResult{}
	}
	res := AccessResult{Sampled: true}
	write := kind == Store

	if kind == Fetch {
		hit, _, _ := h.tc.Access(line, false, Exclusive)
		if hit {
			return res
		}
		res.TCMiss = true
	}

	// L2: a hit is local unless it is a store to a Shared line, which
	// must broadcast an upgrade to invalidate remote copies.
	if st, ok := h.l2.Probe(line); ok {
		h.l2.Access(line, write, st)
		if write && st == Shared && d.Coherent {
			d.invalidateOthers(cpu, line)
			h.l3.SetState(line, Modified)
		}
		return res
	}
	res.L2Miss = true

	// L3: hit fills L2 with the (possibly upgraded) coherence state.
	if st, ok := h.l3.Probe(line); ok {
		h.l3.Access(line, write, st)
		newState := st
		if write {
			if st == Shared && d.Coherent {
				d.invalidateOthers(cpu, line)
			}
			newState = Modified
		}
		_, l2victim, _ := h.l2.Access(line, write, newState)
		h.l2WritebackToL3(l2victim)
		return res
	}

	// Full miss: snoop the other CPUs, fill L3 then L2.
	fill := Exclusive
	if d.Coherent {
		fill = d.snoop(cpu, line, write)
	}
	_, victim, coher := h.l3.Access(line, write, fill)
	st := fill
	if write {
		st = Modified
	}
	_, l2victim, _ := h.l2.Access(line, write, st)
	h.l2WritebackToL3(l2victim)
	res.L3Miss = true
	res.Coherence = coher
	res.Writeback = victim.Valid && victim.Dirty
	return res
}

// l2WritebackToL3 propagates a dirty L2 eviction into the L3 copy so the
// eventual L3 eviction produces the bus writeback.
func (h *refHierarchy) l2WritebackToL3(victim Evicted) {
	if victim.Valid && victim.Dirty {
		h.l3.SetState(victim.Line, Modified)
	}
}

// snoop implements the bus-side MESI transitions for a fill on cpu and
// returns the state the line should be installed in.
func (d *refDomain) snoop(cpu int, line uint64, write bool) State {
	anyOther := false
	for i, other := range d.CPUs {
		if i == cpu {
			continue
		}
		if write {
			if present, _ := other.l3.Invalidate(line); present {
				anyOther = true
				other.l2.Invalidate(line)
				other.tc.Invalidate(line)
			}
		} else {
			if present, _ := other.l3.Downgrade(line); present {
				anyOther = true
			}
		}
	}
	switch {
	case write:
		return Modified
	case anyOther:
		return Shared
	default:
		return Exclusive
	}
}

func (d *refDomain) invalidateOthers(cpu int, line uint64) {
	for i, other := range d.CPUs {
		if i == cpu {
			continue
		}
		if present, _ := other.l3.Invalidate(line); present {
			other.l2.Invalidate(line)
			other.tc.Invalidate(line)
		}
	}
}

// ResetStats zeroes every cache's counters across the domain.
func (d *refDomain) ResetStats() {
	for _, h := range d.CPUs {
		h.tc.ResetStats()
		h.l2.ResetStats()
		h.l3.ResetStats()
	}
}

// SampleFactor returns the line-sampling divisor; observed event counts
// represent SampleFactor times as many unsampled events.
func (d *refDomain) SampleFactor() uint64 { return d.sampleMod }
