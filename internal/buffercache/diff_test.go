package buffercache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The differential tests drive Cache and refCache, the map-and-pointer
// implementation it replaced, through one operation sequence and demand
// the same observable behaviour at every step: entry IDs, evictions,
// cleaned-ID lists in order, counters, and panics.

// handle is one pinned entry, seen from both implementations.
type handle struct {
	e *Entry
	r *refEntry
}

type harness struct {
	t     testing.TB
	c     *Cache
	r     *refCache
	ids   []BlockID
	held  []handle // entries pinned by Lookup/Install and not yet released
	spent []handle // released entries, kept to exercise the misuse panics
	dst   []BlockID
	rdst  []BlockID
}

// conflictIDs returns block IDs that stress a cache of the given
// capacity's index: several sharing the home slot of the table's last
// slot (so their run wraps to slot 0), several sharing slot 0 and the
// middle slot, and a few scattered ones.
func conflictIDs(capacity int) []BlockID {
	c := New(Config{Blocks: capacity})
	last := len(c.slots) - 1
	want := map[int]int{last: 4, 0: 3}
	if mid := last / 2; mid != 0 {
		want[mid] = 2
	}
	left := 0
	for _, k := range want {
		left += k
	}
	var ids []BlockID
	for id := BlockID(1); left > 0; id++ {
		if h := c.home(id); want[h] > 0 {
			left--
			want[h]--
			ids = append(ids, id)
		}
	}
	return append(ids, 1<<40, 7, 1<<63+5)
}

func newHarness(t testing.TB, capacity int) *harness {
	return &harness{
		t:   t,
		c:   New(Config{Blocks: capacity}),
		r:   newRef(Config{Blocks: capacity}),
		ids: conflictIDs(capacity),
	}
}

// catch runs f and returns what it panicked with, if anything.
func catch(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

func (h *harness) samePanic(step int, what string, p, rp any) bool {
	if fmt.Sprint(p) != fmt.Sprint(rp) {
		h.t.Fatalf("step %d %s: panic %v, reference %v", step, what, p, rp)
	}
	return p != nil
}

func (h *harness) sameEntry(step int, what string, e *Entry, r *refEntry) {
	if (e == nil) != (r == nil) {
		h.t.Fatalf("step %d %s: entry %v, reference %v", step, what, e != nil, r != nil)
	}
	if e != nil && (e.ID != r.ID || e.Dirty() != r.Dirty()) {
		h.t.Fatalf("step %d %s: entry %d dirty=%v, reference %d dirty=%v",
			step, what, e.ID, e.Dirty(), r.ID, r.Dirty())
	}
}

func (h *harness) sameIDs(step int, what string, got, want []BlockID) {
	if !slices.Equal(got, want) {
		h.t.Fatalf("step %d %s: cleaned %v, reference %v", step, what, got, want)
	}
}

// pick returns the k-th handle of list (modulo its length) and its
// position, or false for an empty list.
func pick(list []handle, k byte) (handle, int, bool) {
	if len(list) == 0 {
		return handle{}, 0, false
	}
	i := int(k) % len(list)
	return list[i], i, true
}

// step applies the operation coded by (op, arg) to both caches.
func (h *harness) step(n int, op, arg byte) {
	id := h.ids[int(arg)%len(h.ids)]
	switch op % 9 {
	case 0: // Lookup
		e, r := h.c.Lookup(id), h.r.Lookup(id)
		h.sameEntry(n, "Lookup", e, r)
		if e != nil {
			h.held = append(h.held, handle{e, r})
		}
	case 1, 2: // Install, InstallScan
		var e *Entry
		var r *refEntry
		var ev, rev Evicted
		p := catch(func() {
			if op%9 == 1 {
				e, ev = h.c.Install(id)
			} else {
				e, ev = h.c.InstallScan(id)
			}
		})
		rp := catch(func() {
			if op%9 == 1 {
				r, rev = h.r.Install(id)
			} else {
				r, rev = h.r.InstallScan(id)
			}
		})
		if !h.samePanic(n, "Install", p, rp) {
			h.sameEntry(n, "Install", e, r)
			if ev.ID != rev.ID || ev.Dirty != rev.Dirty || ev.Valid != rev.Valid ||
				(ev.Data == nil) != (rev.Data == nil) {
				h.t.Fatalf("step %d Install %d: evicted %+v, reference %+v", n, id, ev, rev)
			}
			h.held = append(h.held, handle{e, r})
		}
	case 3: // Release a held entry
		if hd, i, ok := pick(h.held, arg); ok {
			h.samePanic(n, "Release", catch(func() { h.c.Release(hd.e) }), catch(func() { h.r.Release(hd.r) }))
			h.held = slices.Delete(h.held, i, i+1)
			h.spent = append(h.spent, hd)
		}
	case 4: // MarkDirty a held entry
		if hd, _, ok := pick(h.held, arg); ok {
			h.samePanic(n, "MarkDirty", catch(func() { h.c.MarkDirty(hd.e) }), catch(func() { h.r.MarkDirty(hd.r) }))
			h.sameEntry(n, "MarkDirty", hd.e, hd.r)
		}
	case 5: // CleanAgedInto, reusing one scratch buffer
		max, minAge := int(arg%6), uint64(arg/6%4)
		h.dst = h.c.CleanAgedInto(h.dst[:0], max, minAge)
		h.rdst = h.r.CleanAgedInto(h.rdst[:0], max, minAge)
		h.sameIDs(n, "CleanAgedInto", h.dst, h.rdst)
	case 6: // CleanAllDirty
		h.sameIDs(n, "CleanAllDirty", h.c.CleanAllDirty(), h.r.CleanAllDirty())
	case 7: // Release or MarkDirty a released entry: misuse, panic parity
		if hd, _, ok := pick(h.spent, arg); ok {
			if arg%2 == 0 {
				h.samePanic(n, "stale Release", catch(func() { h.c.Release(hd.e) }), catch(func() { h.r.Release(hd.r) }))
			} else {
				h.samePanic(n, "stale MarkDirty", catch(func() { h.c.MarkDirty(hd.e) }), catch(func() { h.r.MarkDirty(hd.r) }))
			}
		}
	case 8: // ResetStats
		h.c.ResetStats()
		h.r.ResetStats()
	}
	if h.c.Stats() != h.r.Stats() || h.c.Len() != h.r.Len() || h.c.DirtyCount() != h.r.DirtyCount() {
		h.t.Fatalf("step %d op %d: stats %+v len %d dirty %d, reference %+v len %d dirty %d",
			n, op%9, h.c.Stats(), h.c.Len(), h.c.DirtyCount(), h.r.Stats(), h.r.Len(), h.r.DirtyCount())
	}
	if err := h.c.checkIndex(); err != nil {
		h.t.Fatalf("step %d op %d: %v", n, op%9, err)
	}
}

// checkIndex verifies the block index against the arena: one occupied
// slot per resident block, each naming its entry's block and reachable
// from that block's home slot. A broken index otherwise shows only
// later, as a lookup miss or a probe that never ends.
func (c *Cache) checkIndex() error {
	used := 0
	for i, s := range c.slots {
		if s.ref == 0 {
			continue
		}
		used++
		if id := c.arena[s.ref-1].ID; id != s.id {
			return fmt.Errorf("slot %d names block %d, its entry holds %d", i, s.id, id)
		}
		if at, ok := c.probe(c.home(s.id), s.id); !ok || at != i {
			return fmt.Errorf("block %d in slot %d is unreachable from its home %d", s.id, i, c.home(s.id))
		}
	}
	if used != c.size {
		return fmt.Errorf("%d occupied slots for %d resident blocks", used, c.size)
	}
	return nil
}

// run applies ops, two bytes per operation.
func (h *harness) run(ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		h.step(i/2, ops[i], ops[i+1])
	}
	// Every resident block must still be found by both.
	for _, id := range h.ids {
		e, r := h.c.Lookup(id), h.r.Lookup(id)
		h.sameEntry(len(ops), "final Lookup", e, r)
	}
}

// randomOps draws n operations biased towards the common path: lookups,
// installs and releases, so the cache fills and evicts.
func randomOps(rng *rand.Rand, n int) []byte {
	weights := []byte{0, 0, 1, 1, 1, 2, 3, 3, 3, 3, 4, 5, 6, 7, 8}
	ops := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		ops = append(ops, weights[rng.Intn(len(weights))], byte(rng.Intn(256)))
	}
	return ops
}

func TestDifferentialAgainstReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 6, 7, 13} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				newHarness(t, capacity).run(randomOps(rng, 3000))
			})
		}
	}
}

func FuzzOps(f *testing.F) {
	f.Add(byte(5), []byte{1, 0, 3, 0, 1, 1, 3, 0, 1, 2, 4, 0, 3, 0, 1, 3, 5, 12})
	f.Add(byte(0), []byte{1, 0, 1, 1, 3, 0, 7, 0, 7, 1, 6, 0})
	f.Add(byte(12), randomOps(rand.New(rand.NewSource(1)), 400))
	f.Fuzz(func(t *testing.T, capacity byte, ops []byte) {
		newHarness(t, 1+int(capacity%16)).run(ops)
	})
}

// idsWithHome returns the first k positive block IDs whose home slot in
// c is h.
func idsWithHome(c *Cache, h, k int) []BlockID {
	var ids []BlockID
	for id := BlockID(1); len(ids) < k; id++ {
		if c.home(id) == h {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestBackwardShiftAcrossWraparound evicts the head of a probe run that
// wraps from the table's last slot to slot 0 and checks that the run
// shifts back across the wrap, that an entry already at its home stays,
// and that the displacing block takes the hole inside its own run.
func TestBackwardShiftAcrossWraparound(t *testing.T) {
	c := New(Config{Blocks: 6})
	if len(c.slots) != 8 {
		t.Fatalf("table size %d, want 8", len(c.slots))
	}
	wrap := idsWithHome(c, 7, 3) // a, b, c: slots 7, 0, 1
	d := idsWithHome(c, 0, 1)[0] // slot 2
	e := idsWithHome(c, 1, 1)[0] // slot 3
	f := idsWithHome(c, 4, 1)[0] // slot 4, at home
	g := idsWithHome(c, 2, 1)[0] // slot 2, where d sits
	for _, id := range []BlockID{wrap[0], wrap[1], wrap[2], d, e, f} {
		en, _ := c.Install(id)
		c.Release(en)
	}
	layout := func() []BlockID {
		out := make([]BlockID, len(c.slots))
		for i, s := range c.slots {
			if s.ref != 0 {
				out[i] = s.id
			}
		}
		return out
	}
	if got, want := layout(), []BlockID{wrap[1], wrap[2], d, e, f, 0, 0, wrap[0]}; !slices.Equal(got, want) {
		t.Fatalf("filled layout %v, want %v", got, want)
	}
	// g's run starts at slot 2 and first ends at slot 5; evicting
	// wrap[0] (the LRU block) from slot 7 shifts b, c, d and e back one
	// slot each, across the wrap, and leaves the hole at slot 3, inside
	// g's run.
	en, ev := c.Install(g)
	c.Release(en)
	if !ev.Valid || ev.ID != wrap[0] {
		t.Fatalf("evicted %+v, want block %d", ev, wrap[0])
	}
	if got, want := layout(), []BlockID{wrap[2], d, e, g, f, 0, 0, wrap[1]}; !slices.Equal(got, want) {
		t.Fatalf("layout after eviction %v, want %v", got, want)
	}
	for _, id := range []BlockID{wrap[1], wrap[2], d, e, f, g} {
		en := c.Lookup(id)
		if en == nil {
			t.Fatalf("block %d lost after the shift", id)
		}
		c.Release(en)
	}
	if c.Lookup(wrap[0]) != nil {
		t.Fatalf("evicted block %d still found", wrap[0])
	}
}

// TestSteadyStateAllocFree pins the full cache's miss path — a Lookup
// miss, an Install that evicts, a Release — at zero allocations, and the
// hit path with it.
func TestSteadyStateAllocFree(t *testing.T) {
	const capacity = 1024
	c := New(Config{Blocks: capacity})
	next := BlockID(0)
	get := func() {
		id := next % (2 * capacity)
		next++
		e := c.Lookup(id)
		if e == nil {
			e, _ = c.Install(id)
		}
		c.MarkDirty(e)
		c.Release(e)
	}
	for i := 0; i < 4*capacity; i++ {
		get()
	}
	if allocs := testing.AllocsPerRun(1000, get); allocs != 0 {
		t.Fatalf("steady-state get allocates %.1f times", allocs)
	}
	hit := func() {
		e := c.Lookup((next - 1) % (2 * capacity))
		c.Release(e)
	}
	if allocs := testing.AllocsPerRun(1000, hit); allocs != 0 {
		t.Fatalf("steady-state hit allocates %.1f times", allocs)
	}
}
