package dlist

import (
	"testing"

	"lfrc/internal/census"
)

// TestSearchHandsCountsAlong pins the cost of a list hop: a traversal hands
// curr's count to pred instead of copying it, so a Contains that walks past
// all n nodes makes n+1 Loads (head plus one per node), n Destroys (each
// dropped pred, the last one by Contains itself) and no Copy. The Step-5
// Copy-then-Load form costs n Copies and 2n Destroys. The quiescent count
// audit must stay clean afterwards: no count leaked or lost on the way.
func TestSearchHandsCountsAlong(t *testing.T) {
	const n = 10
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer w.closeAndDrain(l)
			for k := Key(n); k >= 1; k-- {
				mustInsert(t, l, k)
			}

			before := w.rc.Stats()
			if l.Contains(n + 1) {
				t.Fatalf("Contains(%d) = true, want false", n+1)
			}
			after := w.rc.Stats()
			if got := after.Copies - before.Copies; got != 0 {
				t.Errorf("Copies = %d, want 0", got)
			}
			if got := after.Loads - before.Loads; got != n+1 {
				t.Errorf("Loads = %d, want %d", got, n+1)
			}
			if got := after.Destroys - before.Destroys; got != n {
				t.Errorf("Destroys = %d, want %d", got, n)
			}

			anchor := uint32(l.Anchor())
			if ms := census.Audit(census.Config{
				Heap:   w.h,
				Read:   w.rc.SnapshotRead,
				Decode: w.rc.DecodeLink,
				Roots:  map[uint32]census.Root{anchor: {Ref: anchor, Count: 1}},
			}); len(ms) != 0 {
				t.Errorf("count audit after Contains: %+v", ms)
			}
		})
	}
}
