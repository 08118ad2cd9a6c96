package dcas

import (
	"testing"

	"lfrc/internal/mem"
)

// FuzzEnginesAgree interprets the fuzz input as an operation script over a
// small cell soup and requires the locking engine (the modeled hardware
// DCAS) and the software MCAS engine to produce identical outcomes and
// final states.
func FuzzEnginesAgree(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 0, 1, 3, 2, 0, 1, 3})
	f.Add([]byte{3, 3, 3, 3})
	f.Add([]byte{1, 0, 2, 2, 1, 0})
	f.Add([]byte{3, 0, 1, 0, 0, 4, 1, 0, 0, 1, 3, 2, 3, 0, 0})

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 600 {
			script = script[:600]
		}
		const nCells = 4

		run := func(mk func(h *mem.Heap) Engine) ([]bool, [nCells]uint64) {
			h := mem.NewHeap()
			id := h.MustRegisterType(mem.TypeDesc{Name: "c", NumFields: nCells})
			r := h.MustAlloc(id)
			cells := [nCells]mem.Addr{}
			for i := range cells {
				cells[i] = h.FieldAddr(r, i)
			}
			e := mk(h)

			var outcomes []bool
			for i := 0; i+4 < len(script); i += 5 {
				op := script[i] % 5
				a0 := cells[script[i+1]%nCells]
				a1 := cells[script[i+2]%nCells]
				v0 := uint64(script[i+3] % 4)
				v1 := uint64(script[i+4] % 4)
				switch op {
				case 0:
					e.Write(a0, v0)
				case 1:
					outcomes = append(outcomes, e.CAS(a0, v0, v1))
				case 2:
					outcomes = append(outcomes, e.DCAS(a0, a1, v0, v1, v1, v0))
				case 3: // compare-only on a0
					outcomes = append(outcomes, e.DCAS(a0, a1, v0, v1, v0, (v1+1)%4))
				case 4: // compare-only on a1
					outcomes = append(outcomes, e.DCAS(a0, a1, v0, v1, (v0+1)%4, v1))
				}
			}
			var final [nCells]uint64
			for i, a := range cells {
				final[i] = e.Read(a)
			}
			return outcomes, final
		}

		o1, f1 := run(func(h *mem.Heap) Engine { return NewLocking(h) })
		o2, f2 := run(func(h *mem.Heap) Engine { return NewMCAS(h) })
		if len(o1) != len(o2) {
			t.Fatalf("outcome count differs: %d vs %d", len(o1), len(o2))
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("outcome %d differs: locking=%v mcas=%v", i, o1[i], o2[i])
			}
		}
		if f1 != f2 {
			t.Fatalf("final state differs: %v vs %v", f1, f2)
		}
	})
}
