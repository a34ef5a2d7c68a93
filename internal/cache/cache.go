// Package cache implements the processor cache hierarchy used to measure
// the paper's MPI (L3 misses per instruction) behaviour: generic
// set-associative caches with LRU replacement and MESI states, a
// three-level per-CPU hierarchy (trace cache, L2, L3 — the Xeon MP's
// 16 KB-equivalent TC, 256 KB L2 and 1 MB L3), and a snooping coherence
// domain connecting the L3s of all processors.
//
// For simulation speed the hierarchy supports line-hash sampling: only
// lines whose address hash falls in 1/Sample of the space are simulated,
// against caches scaled down by the same factor, which is the standard
// set-sampling technique and leaves miss ratios unbiased for the skewed
// reference streams OLTP produces.
package cache

import "fmt"

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// State is a MESI coherence state.
type State uint8

// MESI states. Invalid lines are not present.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

type way struct {
	tag   uint64 // full line address (not just the tag bits) for simplicity
	state State
	touch uint64
}

// Cache is a single set-associative cache with LRU replacement.
type Cache struct {
	sets     [][]way
	lineBits uint
	setMask  uint64
	tick     uint64
}

// NewCache builds a cache of the given total size in bytes, associativity
// and line size. Size must be an exact multiple of ways*lineSize and the
// set count must be a power of two. name labels the panic messages.
func NewCache(name string, size, ways, lineSize int) *Cache {
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
	c := &Cache{
		sets:     make([][]way, nsets),
		lineBits: lineBits,
		setMask:  uint64(nsets - 1),
	}
	for i := range c.sets {
		c.sets[i] = make([]way, ways)
	}
	return c
}

// Line returns the line address containing addr.
func (c *Cache) Line(addr Addr) uint64 { return uint64(addr) >> c.lineBits }

func (c *Cache) setOf(line uint64) []way { return c.sets[line&c.setMask] }

// Probe reports whether line is present and in what state, without
// touching LRU.
func (c *Cache) Probe(line uint64) (State, bool) {
	for i := range c.setOf(line) {
		w := &c.setOf(line)[i]
		if w.state != Invalid && w.tag == line {
			return w.state, true
		}
	}
	return Invalid, false
}

// Evicted describes a line displaced by an insertion.
type Evicted struct {
	Line  uint64
	Dirty bool // the line was Modified and needs a writeback
	Valid bool // false when the insertion used an empty way
}

// Access looks up a line, updating LRU. On a miss the line is inserted
// in the given state and the victim (if any) is returned. write upgrades
// the final state to Modified.
func (c *Cache) Access(line uint64, write bool, fillState State) (hit bool, victim Evicted) {
	c.tick++
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.tag == line {
			w.touch = c.tick
			if write {
				w.state = Modified
			}
			return true, Evicted{}
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
fill:
	st := fillState
	if write {
		st = Modified
	}
	set[victimIdx] = way{tag: line, state: st, touch: c.tick}
	return false, victim
}

// Invalidate removes line (a remote writer took it), reporting whether it
// was present.
func (c *Cache) Invalidate(line uint64) bool {
	return c.SetState(line, Invalid)
}

// Downgrade moves line to Shared (a remote reader snooped it), reporting
// whether it was present.
func (c *Cache) Downgrade(line uint64) bool {
	return c.SetState(line, Shared)
}

// SetState forces the state of line if present, reporting whether it was.
// The coherence domain uses it for upgrades and L2→L3 writebacks.
func (c *Cache) SetState(line uint64, st State) bool {
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
