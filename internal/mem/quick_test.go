package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickHeaderRoundTrip property-tests that header packing is lossless
// for all in-range inputs and never touches the reserved descriptor bits.
func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(size uint16, typ uint16, freed bool, gen uint32) bool {
		s := int(size)
		id := TypeID(typ & hdrTypeMask)
		g := gen & hdrGenMask
		h := packHeader(s, id, freed, g)
		return h&^ValueMask == 0 &&
			headerSize(h) == s &&
			headerType(h) == id &&
			headerFreed(h) == freed &&
			headerGen(h) == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickAllocFreeConservation property-tests the allocator against a
// model: after an arbitrary sequence of allocs and frees, live accounting
// matches the model exactly and freed slots are recycled before new arena
// words are carved.
func TestQuickAllocFreeConservation(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		if len(opsRaw) > 400 {
			opsRaw = opsRaw[:400]
		}
		rng := rand.New(rand.NewSource(seed))
		h := NewHeap(WithMaxWords(2 * segWords))
		typ := h.MustRegisterType(TypeDesc{Name: "t", NumFields: 4, PtrFields: []int{0}})

		live := map[Ref]bool{}
		for _, op := range opsRaw {
			if op%3 != 0 || len(live) == 0 {
				r, err := h.Alloc(typ)
				if err != nil {
					return false
				}
				if live[r] {
					return false // allocator handed out a live slot
				}
				live[r] = true
			} else {
				// Free a pseudo-random live object.
				k := rng.Intn(len(live))
				var victim Ref
				for r := range live {
					if k == 0 {
						victim = r
						break
					}
					k--
				}
				if err := h.Free(victim); err != nil {
					return false
				}
				delete(live, victim)
			}
		}
		s := h.Stats()
		if s.LiveObjects != int64(len(live)) {
			return false
		}
		// LiveWords counts slot footprint: 3 header + 4 payload words
		// occupy one whole cache line.
		if s.LiveWords != int64(len(live)*LineWords) {
			return false
		}
		if s.Corruptions != 0 || s.DoubleFrees != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFreedSlotsAreRecycledFirst checks that as long as a free list is
// non-empty, allocation reuses it instead of growing the arena.
func TestQuickFreedSlotsAreRecycledFirst(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%32) + 1
		h := NewHeap()
		typ := h.MustRegisterType(TypeDesc{Name: "t", NumFields: 2})

		refs := make([]Ref, count)
		for i := range refs {
			refs[i] = h.MustAlloc(typ)
		}
		for _, r := range refs {
			if err := h.Free(r); err != nil {
				return false
			}
		}
		before := h.Stats().HighWater
		for i := 0; i < count; i++ {
			h.MustAlloc(typ)
		}
		after := h.Stats()
		return after.HighWater == before && after.Recycles == int64(count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickGenerationMonotonic checks that a slot's generation strictly
// increases across realloc cycles.
func TestQuickGenerationMonotonic(t *testing.T) {
	f := func(n uint8) bool {
		cycles := int(n%20) + 2
		h := NewHeap()
		typ := h.MustRegisterType(TypeDesc{Name: "t", NumFields: 1})

		r := h.MustAlloc(typ)
		prev := h.Generation(r)
		for i := 0; i < cycles; i++ {
			if err := h.Free(r); err != nil {
				return false
			}
			r2 := h.MustAlloc(typ)
			if r2 != r {
				return false
			}
			g := h.Generation(r2)
			if g <= prev {
				return false
			}
			prev = g
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
