package core

import "testing"

func TestDCASMixedSemantics(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a := w.sharedPtr(t)
			p, _ := w.rc.NewObject(w.node)
			q, _ := w.rc.NewObject(w.node)
			w.rc.StoreAlloc(a, p)
			mark := w.h.FieldAddr(q, 2) // scalar cell on the surviving object

			// Fails when the scalar mismatches; q's count compensated.
			if w.rc.DCASMixed(a, p, q, mark, 1, 1) {
				t.Fatal("DCASMixed succeeded with wrong scalar old")
			}
			if got := w.rc.RCOf(q); got != 1 {
				t.Errorf("rc(q) = %d after failure, want 1", got)
			}

			// Succeeds when both match: pointer swapped with counts,
			// scalar swapped without.
			if !w.rc.DCASMixed(a, p, q, mark, 0, 7) {
				t.Fatal("DCASMixed failed with matching olds")
			}
			if got := w.rc.WordLoad(mark); got != 7 {
				t.Errorf("scalar = %d, want 7", got)
			}
			if !w.h.IsFreed(p) {
				t.Error("displaced pointer's referent not freed")
			}
			if got := w.rc.RCOf(q); got != 2 {
				t.Errorf("rc(q) = %d, want 2", got)
			}
			w.rc.Destroy(q)
		})
	}
}
