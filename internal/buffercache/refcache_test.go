package buffercache

import "fmt"

// refCache is the map-and-pointer buffer cache the open-addressed,
// index-linked Cache replaced, kept verbatim (types renamed) as the
// oracle for the differential tests in diff_test.go.

// refEntry is a cached block. Callers receive entries pinned and must
// Release them.
type refEntry struct {
	ID    BlockID
	Data  []byte // nil unless payload mode
	dirty bool
	pins  int
	touch uint64 // get-counter value at the last Lookup/Install

	prev, next           *refEntry // LRU chain
	dirtyPrev, dirtyNext *refEntry // dirty chain (aged order)
	inDirty              bool
}

// Dirty reports whether the entry has unwritten modifications.
func (e *refEntry) Dirty() bool { return e.dirty }

// refCache is the buffer cache.
type refCache struct {
	cfg   Config
	table map[BlockID]*refEntry

	head, tail           *refEntry // head = MRU, tail = LRU
	dirtyHead, dirtyTail *refEntry // dirtyTail = oldest dirty
	free                 *refEntry // recycled entries, chained through next
	size                 int
	dirtyCount           int

	stats Stats
}

// New builds an empty cache.
func newRef(cfg Config) *refCache {
	if cfg.Blocks <= 0 {
		panic("buffercache: non-positive capacity")
	}
	if cfg.Payloads && cfg.BlockSize <= 0 {
		panic("buffercache: payload mode needs a block size")
	}
	c := &refCache{cfg: cfg, table: make(map[BlockID]*refEntry, cfg.Blocks)}
	// The cache runs at capacity in steady state, so carve all entries out
	// of one arena up front and hand them out through the free list.
	arena := make([]refEntry, cfg.Blocks)
	for i := range arena {
		arena[i].next = c.free
		c.free = &arena[i]
	}
	return c
}

// --- intrusive LRU list ---

func (c *refCache) lruRemove(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *refCache) lruPushFront(e *refEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *refCache) lruPushBack(e *refEntry) {
	e.prev, e.next = c.tail, nil
	if c.tail != nil {
		c.tail.next = e
	}
	c.tail = e
	if c.head == nil {
		c.head = e
	}
}

// --- dirty list (append new at head; tail is the oldest) ---

func (c *refCache) dirtyRemove(e *refEntry) {
	if !e.inDirty {
		return
	}
	if e.dirtyPrev != nil {
		e.dirtyPrev.dirtyNext = e.dirtyNext
	} else {
		c.dirtyHead = e.dirtyNext
	}
	if e.dirtyNext != nil {
		e.dirtyNext.dirtyPrev = e.dirtyPrev
	} else {
		c.dirtyTail = e.dirtyPrev
	}
	e.dirtyPrev, e.dirtyNext = nil, nil
	e.inDirty = false
	c.dirtyCount--
}

func (c *refCache) dirtyPushFront(e *refEntry) {
	if e.inDirty {
		return
	}
	e.dirtyPrev, e.dirtyNext = nil, c.dirtyHead
	if c.dirtyHead != nil {
		c.dirtyHead.dirtyPrev = e
	}
	c.dirtyHead = e
	if c.dirtyTail == nil {
		c.dirtyTail = e
	}
	e.inDirty = true
	c.dirtyCount++
}

// Lookup returns the entry for id pinned, or nil on a miss. A hit moves
// the block to the MRU position.
func (c *refCache) Lookup(id BlockID) *refEntry {
	c.stats.Gets++
	e, ok := c.table[id]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.lruRemove(e)
	c.lruPushFront(e)
	e.touch = c.stats.Gets
	e.pins++
	return e
}

// Install inserts a block just read from disk, pinned, evicting the
// least-recently-used unpinned block if the cache is full. Installing a
// block that is already present is a bug in the caller and panics.
// The second return reports the eviction, if one happened; a dirty victim
// must be written back by the caller (eviction write).
//
// refEntry structs are pooled: an evicted block's entry is recycled for the
// incoming block, so a warmed-up cache installs without allocating. The
// victim's payload page (if any) is handed off in Evicted, never reused.
func (c *refCache) Install(id BlockID) (*refEntry, Evicted) {
	return c.install(id, false)
}

// InstallScan inserts a block read by a sequential scan — a stock-level
// sweep, an engine's compaction pass — at the cold (LRU) end of the
// chain instead of the MRU position, the midpoint/NOCACHE discipline
// real servers apply to large scans. One-touch scan blocks then become
// the next victims and churn among themselves, so a scan longer than
// the cache cannot flush the transactional working set; a block the
// workload re-reads is promoted to MRU by the Lookup hit as usual.
// Everything else (pinning, eviction, entry pooling) matches Install.
func (c *refCache) InstallScan(id BlockID) (*refEntry, Evicted) {
	return c.install(id, true)
}

func (c *refCache) install(id BlockID, scan bool) (*refEntry, Evicted) {
	if _, ok := c.table[id]; ok {
		panic(fmt.Sprintf("buffercache: Install of resident block %d", id))
	}
	var ev Evicted
	if c.size >= c.cfg.Blocks {
		victim := c.tail
		for victim != nil && victim.pins > 0 {
			victim = victim.prev
		}
		if victim == nil {
			panic("buffercache: all blocks pinned, cannot install")
		}
		ev = Evicted{ID: victim.ID, Dirty: victim.dirty, Valid: true, Data: victim.Data}
		if victim.dirty {
			c.stats.Writebacks++
			c.dirtyRemove(victim)
		}
		c.lruRemove(victim)
		delete(c.table, victim.ID)
		c.size--
		c.stats.Evictions++
		victim.Data = nil
		victim.next = c.free
		c.free = victim
	}
	var e *refEntry
	if c.free != nil {
		e = c.free
		c.free = e.next
		*e = refEntry{ID: id, pins: 1, touch: c.stats.Gets}
	} else {
		e = &refEntry{ID: id, pins: 1, touch: c.stats.Gets}
	}
	if c.cfg.Payloads {
		e.Data = make([]byte, c.cfg.BlockSize)
	}
	c.table[id] = e
	if scan {
		c.lruPushBack(e)
	} else {
		c.lruPushFront(e)
	}
	c.size++
	return e, ev
}

// MarkDirty flags a pinned entry as modified.
func (c *refCache) MarkDirty(e *refEntry) {
	if e.pins <= 0 {
		panic("buffercache: MarkDirty on unpinned entry")
	}
	if !e.dirty {
		e.dirty = true
		c.dirtyPushFront(e)
	}
}

// Release unpins an entry obtained from Lookup or Install.
func (c *refCache) Release(e *refEntry) {
	if e.pins <= 0 {
		panic("buffercache: Release without pin")
	}
	e.pins--
}

// CleanBatch cleans up to max dirty unpinned blocks in oldest-dirtied
// order, returning their IDs for the DB writer. It is equivalent to
// CleanAged with no age requirement.
func (c *refCache) CleanBatch(max int) []BlockID { return c.CleanAged(max, 0) }

// CleanAged implements the DB writer's aging policy: walking the dirty
// list oldest-first, it cleans blocks that have not been touched for at
// least minAge gets. Hot blocks being re-dirtied stay dirty in memory
// instead of being written over and over, as with Oracle's LRU-W writer;
// only aged (cooled-off) dirty blocks reach the disk.
func (c *refCache) CleanAged(max int, minAge uint64) []BlockID {
	return c.CleanAgedInto(nil, max, minAge)
}

// CleanAgedInto is CleanAged appending into dst, so a periodic caller (the
// DB writer tick) can reuse one scratch buffer across calls.
func (c *refCache) CleanAgedInto(dst []BlockID, max int, minAge uint64) []BlockID {
	start := len(dst)
	e := c.dirtyTail
	for e != nil && len(dst)-start < max {
		prev := e.dirtyPrev
		if e.pins == 0 && c.stats.Gets-e.touch >= minAge {
			e.dirty = false
			c.dirtyRemove(e)
			c.stats.Writebacks++
			dst = append(dst, e.ID)
		}
		e = prev
	}
	return dst
}

// CleanAllDirty cleans every dirty unpinned block regardless of position
// (a checkpoint) and returns their IDs.
func (c *refCache) CleanAllDirty() []BlockID {
	var out []BlockID
	e := c.dirtyTail
	for e != nil {
		prev := e.dirtyPrev
		if e.pins == 0 {
			e.dirty = false
			c.dirtyRemove(e)
			c.stats.Writebacks++
			out = append(out, e.ID)
		}
		e = prev
	}
	return out
}

// DirtyCount returns the number of dirty blocks.
func (c *refCache) DirtyCount() int { return c.dirtyCount }

// Len returns the number of resident blocks.
func (c *refCache) Len() int { return c.size }

// Capacity returns the configured capacity in blocks.
func (c *refCache) Capacity() int { return c.cfg.Blocks }

// Stats returns a copy of the counters.
func (c *refCache) Stats() Stats { return c.stats }

// ResetStats zeroes counters, preserving contents (end of warm-up).
func (c *refCache) ResetStats() { c.stats = Stats{} }
