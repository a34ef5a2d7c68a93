package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ size, ways, line int }{
		{0, 1, 64},
		{100, 8, 64},     // not divisible
		{64 * 24, 8, 64}, // 3 sets, not power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("want panic for %+v", tc)
				}
			}()
			NewCache("x", tc.size, tc.ways, tc.line)
		}()
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := NewCache("t", 8*64*4, 4, 64) // 8 sets, 4 ways
	hit, victim := c.Access(1, false, Exclusive)
	if hit || victim.Valid {
		t.Fatalf("cold access = %v, %+v, want a miss into an empty way", hit, victim)
	}
	hit, _ = c.Access(1, false, Exclusive)
	if !hit {
		t.Fatal("second access missed")
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewCache("t", 1*64*2, 2, 64) // 1 set, 2 ways
	c.Access(0, false, Exclusive)
	c.Access(1, false, Exclusive)
	c.Access(0, false, Exclusive) // touch 0 so 1 becomes LRU
	_, victim := c.Access(2, false, Exclusive)
	if !victim.Valid || victim.Line != 1 {
		t.Fatalf("victim = %+v, want line 1", victim)
	}
	if _, present := c.Probe(0); !present {
		t.Fatal("MRU line was evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := NewCache("t", 1*64*1, 1, 64) // direct-mapped single set
	c.Access(5, true, Exclusive)      // write -> Modified
	_, victim := c.Access(9, false, Exclusive)
	if !victim.Valid || !victim.Dirty || victim.Line != 5 {
		t.Fatalf("victim of dirty line 5 = %+v, want valid dirty line 5", victim)
	}
	// The clean line that replaced it leaves without a writeback.
	if _, victim = c.Access(5, false, Exclusive); !victim.Valid || victim.Dirty || victim.Line != 9 {
		t.Fatalf("victim of clean line 9 = %+v, want valid clean line 9", victim)
	}
}

func TestInvalidateAndCoherenceMiss(t *testing.T) {
	c := NewCache("t", 4*64*2, 2, 64)
	c.Access(3, false, Shared)
	if !c.Invalidate(3) {
		t.Fatal("present line reported absent")
	}
	if hit, _ := c.Access(3, false, Shared); hit {
		t.Fatal("invalidated line still hit")
	}
	if c.Invalidate(98) {
		t.Fatal("absent line reported present")
	}

	// The domain classifies the first L3 miss after a remote write as a
	// coherence miss, and only that one.
	g := testGeometry()
	d := NewDomain(g, 2, true)
	const addr = 0x4000
	d.Access(0, addr, Load)
	d.Access(1, addr, Store)
	if res := d.Access(0, addr, Load); !res.L3Miss || !res.Coherence {
		t.Fatalf("re-read after remote write = %+v, want coherence miss", res)
	}
	// Evict the line from CPU 0 with same-set lines at every level, then
	// miss on it again: a capacity miss this time.
	l3Sets := g.L3Size / (g.L3Ways * g.LineSize)
	for k := 1; k <= g.L3Ways; k++ {
		d.Access(0, Addr(addr+k*l3Sets*g.LineSize), Load)
	}
	if res := d.Access(0, addr, Load); !res.L3Miss || res.Coherence {
		t.Fatalf("re-read after eviction = %+v, want a non-coherence L3 miss", res)
	}
}

func TestDowngrade(t *testing.T) {
	c := NewCache("t", 4*64*2, 2, 64)
	c.Access(7, true, Exclusive) // Modified
	if !c.Downgrade(7) {
		t.Fatal("present line reported absent")
	}
	if st, _ := c.Probe(7); st != Shared {
		t.Fatalf("state after downgrade = %v", st)
	}
	if c.Downgrade(1234) {
		t.Fatal("absent line downgraded")
	}
}

// Property: a hit never reports a victim, an access always leaves its
// line present, a victim is gone afterwards, and a miss reports a victim
// exactly when every way of the set was already filled.
func TestAccountingQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache("t", 16*64*4, 4, 64)
		filled := make(map[uint64]int) // valid ways per set
		for i := 0; i < 2000; i++ {
			line := uint64(rng.Intn(200))
			set := line & c.setMask
			hit, victim := c.Access(line, rng.Intn(2) == 0, Exclusive)
			switch {
			case hit && victim.Valid:
				return false
			case !hit && victim.Valid != (filled[set] == len(c.sets[set])):
				return false
			case !hit && !victim.Valid:
				filled[set]++
			}
			if _, ok := c.Probe(line); !ok {
				return false
			}
			if _, ok := c.Probe(victim.Line); victim.Valid && ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache never holds two copies of the same line, and never
// holds more lines than its capacity.
func TestNoDuplicatesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache("t", 8*64*2, 2, 64)
		for i := 0; i < 1000; i++ {
			c.Access(uint64(rng.Intn(64)), rng.Intn(2) == 0, Exclusive)
			if rng.Intn(10) == 0 {
				c.Invalidate(uint64(rng.Intn(64)))
			}
		}
		seen := map[uint64]int{}
		total := 0
		for _, set := range c.sets {
			for _, w := range set {
				if w.state != Invalid {
					seen[w.tag]++
					total++
				}
			}
		}
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return total <= 8*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Inclusion-style stack property: doubling the associativity with the same
// set count never decreases the hit count on the same trace (LRU stack
// property per set).
func TestStackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trace := make([]uint64, 20000)
	for i := range trace {
		trace[i] = uint64(rng.Intn(500))
	}
	small := NewCache("s", 16*64*2, 2, 64)
	big := NewCache("b", 16*64*4, 4, 64)
	var smallHits, bigHits int
	for _, line := range trace {
		if hit, _ := small.Access(line, false, Exclusive); hit {
			smallHits++
		}
		if hit, _ := big.Access(line, false, Exclusive); hit {
			bigHits++
		}
		// Per set, the bigger cache's contents are a superset.
		if _, ok := small.Probe(line); ok {
			if _, ok := big.Probe(line); !ok {
				t.Fatalf("line %d in the 2-way cache but not the 4-way one", line)
			}
		}
	}
	if bigHits < smallHits {
		t.Fatalf("bigger cache hit less: %d < %d", bigHits, smallHits)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(9): "?"} {
		if st.String() != want {
			t.Fatalf("State(%d).String() = %q", st, st.String())
		}
	}
}
