// Package buffercache implements the database buffer cache held in the
// SGA — the paper's central memory structure. It tracks block usage with
// an LRU chain so the most recently and frequently used database blocks
// stay in memory, supports pinning while a server process operates on a
// block, records dirty state for modified blocks, and exposes the
// DB-writer's view: the set of aged dirty blocks that must be written
// back to disk before reuse.
//
// The cache operates on block identities; in payload mode it also owns an
// 8 KB page per cached block so a functional storage engine can read and
// write real bytes (used by the small-scale examples and recovery tests).
package buffercache

import (
	"fmt"
	"math"
)

// BlockID names a database block.
type BlockID uint64

// Config sizes the cache.
type Config struct {
	Blocks    int  // capacity in blocks
	BlockSize int  // bytes per block (payload mode only)
	Payloads  bool // allocate real pages
}

// Stats counts cache events.
type Stats struct {
	Gets       uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty blocks handed to the DB writer or evicted dirty
}

// HitRatio returns hits per get.
func (s Stats) HitRatio() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Entry is a cached block. Callers receive entries pinned and must
// Release them. Entries live in the cache's arena, and the chains through
// them link arena indices; once unpinned, an entry may be recycled for
// another block.
type Entry struct {
	ID    BlockID
	Data  []byte // nil unless payload mode
	touch uint64 // get-counter value at the last Lookup/Install
	pins  int32

	prev, next           int32 // LRU chain
	dirtyPrev, dirtyNext int32 // dirty chain (aged order); holds exactly the dirty entries
	dirty                bool
}

// Dirty reports whether the entry has unwritten modifications.
func (e *Entry) Dirty() bool { return e.dirty }

// none ends a chain of arena indices.
const none int32 = -1

// slot is one cell of the open-addressed block index. The key is stored
// inline, so a probe never touches the arena.
type slot struct {
	id  BlockID
	ref int32 // arena index + 1; 0 marks an empty slot
}

// hashMul is the multiplicative (Fibonacci) hashing constant, 2^64
// divided by the golden ratio; home keeps the product's top bits.
const hashMul = 0x9e3779b97f4a7c15

// Cache is the buffer cache.
//
// The block index is an open-addressed, linear-probing table with a
// power-of-two size of at least 4/3 of capacity (load at most 3/4), and
// it deletes by backward shift, so it never holds tombstones. The
// entries themselves are carved once, at exactly capacity: arena[:size]
// is in use, and a full cache recycles each victim's entry for the block
// that displaces it, so no entry is ever freed without being reused at
// once and no free list is needed.
type Cache struct {
	cfg   Config
	arena []Entry
	slots []slot
	shift uint // 64 - log2(len(slots))

	head, tail           int32 // head = MRU, tail = LRU
	dirtyHead, dirtyTail int32 // dirtyTail = oldest dirty
	size                 int
	dirtyCount           int

	stats Stats
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	if cfg.Blocks <= 0 {
		panic("buffercache: non-positive capacity")
	}
	if cfg.Blocks > math.MaxInt32 {
		panic("buffercache: capacity exceeds the arena index range")
	}
	if cfg.Payloads && cfg.BlockSize <= 0 {
		panic("buffercache: payload mode needs a block size")
	}
	n, shift := 2, uint(63)
	for 3*n < 4*cfg.Blocks {
		n <<= 1
		shift--
	}
	return &Cache{
		cfg:       cfg,
		arena:     make([]Entry, cfg.Blocks),
		slots:     make([]slot, n),
		shift:     shift,
		head:      none,
		tail:      none,
		dirtyHead: none,
		dirtyTail: none,
	}
}

// --- block index ---

// home returns id's preferred slot.
func (c *Cache) home(id BlockID) int {
	return int((uint64(id) * hashMul) >> c.shift)
}

// probe walks id's probe run from its home slot h. It returns the slot
// holding id and true, or the empty slot that ends the run and false.
func (c *Cache) probe(h int, id BlockID) (int, bool) {
	mask := len(c.slots) - 1
	for i := h; ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.ref == 0 {
			return i, false
		}
		if s.id == id {
			return i, true
		}
	}
}

// unlink empties slot i by backward-shift deletion: each later entry of
// the run moves back into the hole unless its home lies cyclically in
// (hole, its slot], where moving it would put it before its home. It
// returns the slot that ends up empty.
func (c *Cache) unlink(i int) int {
	mask := len(c.slots) - 1
	for j := (i + 1) & mask; c.slots[j].ref != 0; j = (j + 1) & mask {
		if h := c.home(c.slots[j].id); (j-h)&mask >= (j-i)&mask {
			c.slots[i] = c.slots[j]
			i = j
		}
	}
	c.slots[i] = slot{}
	return i
}

// index returns the arena index of a resident entry.
func (c *Cache) index(e *Entry) int32 {
	i, _ := c.probe(c.home(e.ID), e.ID)
	return c.slots[i].ref - 1
}

// --- intrusive LRU list ---

func (c *Cache) lruRemove(x int32) {
	e := &c.arena[x]
	if e.prev != none {
		c.arena[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.arena[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *Cache) lruPushFront(x int32) {
	e := &c.arena[x]
	e.prev, e.next = none, c.head
	if c.head != none {
		c.arena[c.head].prev = x
	}
	c.head = x
	if c.tail == none {
		c.tail = x
	}
}

func (c *Cache) lruPushBack(x int32) {
	e := &c.arena[x]
	e.prev, e.next = c.tail, none
	if c.tail != none {
		c.arena[c.tail].next = x
	}
	c.tail = x
	if c.head == none {
		c.head = x
	}
}

// --- dirty list (append new at head; tail is the oldest) ---

// dirtyRemove takes a dirty entry off the dirty chain and marks it clean.
func (c *Cache) dirtyRemove(x int32) {
	e := &c.arena[x]
	if e.dirtyPrev != none {
		c.arena[e.dirtyPrev].dirtyNext = e.dirtyNext
	} else {
		c.dirtyHead = e.dirtyNext
	}
	if e.dirtyNext != none {
		c.arena[e.dirtyNext].dirtyPrev = e.dirtyPrev
	} else {
		c.dirtyTail = e.dirtyPrev
	}
	e.dirty = false
	c.dirtyCount--
}

// dirtyPushFront marks a clean entry dirty and chains it as the newest.
func (c *Cache) dirtyPushFront(x int32) {
	e := &c.arena[x]
	e.dirtyPrev, e.dirtyNext = none, c.dirtyHead
	if c.dirtyHead != none {
		c.arena[c.dirtyHead].dirtyPrev = x
	}
	c.dirtyHead = x
	if c.dirtyTail == none {
		c.dirtyTail = x
	}
	e.dirty = true
	c.dirtyCount++
}

// Lookup returns the entry for id pinned, or nil on a miss. A hit moves
// the block to the MRU position.
func (c *Cache) Lookup(id BlockID) *Entry {
	c.stats.Gets++
	i, ok := c.probe(c.home(id), id)
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	x := c.slots[i].ref - 1
	if x != c.head {
		c.lruRemove(x)
		c.lruPushFront(x)
	}
	e := &c.arena[x]
	e.touch = c.stats.Gets
	e.pins++
	return e
}

// Evicted describes a block displaced by Install. Valid reports whether an
// eviction happened at all; it is a value, not a pointer, so the steady
// state of a full cache (every install evicts) does not allocate. In
// payload mode Data carries the victim's page so a dirty victim can be
// written to disk.
type Evicted struct {
	ID    BlockID
	Dirty bool
	Valid bool
	Data  []byte
}

// Install inserts a block just read from disk, pinned, evicting the
// least-recently-used unpinned block if the cache is full. Installing a
// block that is already present is a bug in the caller and panics.
// The second return reports the eviction, if one happened; a dirty victim
// must be written back by the caller (eviction write).
//
// Entries come from the arena: an evicted block's entry is recycled for
// the incoming block, so installing never allocates an entry. The
// victim's payload page (if any) is handed off in Evicted, never reused.
func (c *Cache) Install(id BlockID) (*Entry, Evicted) {
	return c.install(id, false)
}

// InstallScan inserts a block read by a sequential scan — a stock-level
// sweep, an engine's compaction pass — at the cold (LRU) end of the
// chain instead of the MRU position, the midpoint/NOCACHE discipline
// real servers apply to large scans. One-touch scan blocks then become
// the next victims and churn among themselves, so a scan longer than
// the cache cannot flush the transactional working set; a block the
// workload re-reads is promoted to MRU by the Lookup hit as usual.
// Everything else (pinning, eviction, entry recycling) matches Install.
func (c *Cache) InstallScan(id BlockID) (*Entry, Evicted) {
	return c.install(id, true)
}

func (c *Cache) install(id BlockID, scan bool) (*Entry, Evicted) {
	h := c.home(id)
	at, ok := c.probe(h, id)
	if ok {
		panic(fmt.Sprintf("buffercache: Install of resident block %d", id))
	}
	var ev Evicted
	x := int32(c.size)
	if c.size == len(c.arena) {
		x = c.tail
		for x != none && c.arena[x].pins > 0 {
			x = c.arena[x].prev
		}
		if x == none {
			panic("buffercache: all blocks pinned, cannot install")
		}
		victim := &c.arena[x]
		ev = Evicted{ID: victim.ID, Dirty: victim.dirty, Valid: true, Data: victim.Data}
		if victim.dirty {
			c.stats.Writebacks++
			c.dirtyRemove(x)
		}
		c.lruRemove(x)
		vs, _ := c.probe(c.home(victim.ID), victim.ID)
		// The deletion leaves one new hole. Every slot of id's run before
		// at was occupied, so if the hole lies in that stretch it is now
		// the first empty slot of the run and the insert goes there.
		mask := len(c.slots) - 1
		if hole := c.unlink(vs); (hole-h)&mask < (at-h)&mask {
			at = hole
		}
		c.size--
		c.stats.Evictions++
	}
	e := &c.arena[x]
	*e = Entry{ID: id, pins: 1, touch: c.stats.Gets}
	if c.cfg.Payloads {
		e.Data = make([]byte, c.cfg.BlockSize)
	}
	c.slots[at] = slot{id: id, ref: x + 1}
	if scan {
		c.lruPushBack(x)
	} else {
		c.lruPushFront(x)
	}
	c.size++
	return e, ev
}

// MarkDirty flags a pinned entry as modified.
func (c *Cache) MarkDirty(e *Entry) {
	if e.pins <= 0 {
		panic("buffercache: MarkDirty on unpinned entry")
	}
	if !e.dirty {
		c.dirtyPushFront(c.index(e))
	}
}

// Release unpins an entry obtained from Lookup or Install.
func (c *Cache) Release(e *Entry) {
	if e.pins <= 0 {
		panic("buffercache: Release without pin")
	}
	e.pins--
}

// CleanBatch cleans up to max dirty unpinned blocks in oldest-dirtied
// order, returning their IDs for the DB writer. It is equivalent to
// CleanAged with no age requirement.
func (c *Cache) CleanBatch(max int) []BlockID { return c.CleanAged(max, 0) }

// CleanAged implements the DB writer's aging policy: walking the dirty
// list oldest-first, it cleans blocks that have not been touched for at
// least minAge gets. Hot blocks being re-dirtied stay dirty in memory
// instead of being written over and over, as with Oracle's LRU-W writer;
// only aged (cooled-off) dirty blocks reach the disk.
func (c *Cache) CleanAged(max int, minAge uint64) []BlockID {
	return c.CleanAgedInto(nil, max, minAge)
}

// CleanAgedInto is CleanAged appending into dst, so a periodic caller (the
// DB writer tick) can reuse one scratch buffer across calls.
func (c *Cache) CleanAgedInto(dst []BlockID, max int, minAge uint64) []BlockID {
	start := len(dst)
	x := c.dirtyTail
	for x != none && len(dst)-start < max {
		e := &c.arena[x]
		prev := e.dirtyPrev
		if e.pins == 0 && c.stats.Gets-e.touch >= minAge {
			c.dirtyRemove(x)
			c.stats.Writebacks++
			dst = append(dst, e.ID)
		}
		x = prev
	}
	return dst
}

// CleanAllDirty cleans every dirty unpinned block regardless of position
// (a checkpoint) and returns their IDs.
func (c *Cache) CleanAllDirty() []BlockID {
	var out []BlockID
	x := c.dirtyTail
	for x != none {
		e := &c.arena[x]
		prev := e.dirtyPrev
		if e.pins == 0 {
			c.dirtyRemove(x)
			c.stats.Writebacks++
			out = append(out, e.ID)
		}
		x = prev
	}
	return out
}

// DirtyCount returns the number of dirty blocks.
func (c *Cache) DirtyCount() int { return c.dirtyCount }

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return c.size }

// Capacity returns the configured capacity in blocks.
func (c *Cache) Capacity() int { return c.cfg.Blocks }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes counters, preserving contents (end of warm-up).
func (c *Cache) ResetStats() { c.stats = Stats{} }
