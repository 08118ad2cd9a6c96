package dcas

import (
	"fmt"
	"testing"

	"lfrc/internal/mem"
)

// engineFactories enumerates the implementations under test so every
// semantic test runs against both.
func engineFactories() map[string]func(h *mem.Heap) Engine {
	return map[string]func(h *mem.Heap) Engine{
		"locking": func(h *mem.Heap) Engine { return NewLocking(h) },
		"mcas":    func(h *mem.Heap) Engine { return NewMCAS(h) },
	}
}

// newCells allocates n adjacent test cells and returns their addresses.
func newCells(t testing.TB, h *mem.Heap, n int) []mem.Addr {
	t.Helper()
	id := h.MustRegisterType(mem.TypeDesc{Name: fmt.Sprintf("cells%d", n), NumFields: n})
	r := h.MustAlloc(id)
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = h.FieldAddr(r, i)
	}
	return addrs
}

func TestEngineReadWrite(t *testing.T) {
	for name, mk := range engineFactories() {
		t.Run(name, func(t *testing.T) {
			h := mem.NewHeap()
			e := mk(h)
			a := newCells(t, h, 1)[0]

			if got := e.Read(a); got != 0 {
				t.Fatalf("fresh cell = %d, want 0", got)
			}
			e.Write(a, 7)
			if got := e.Read(a); got != 7 {
				t.Fatalf("after Write, cell = %d, want 7", got)
			}
			e.Write(a, mem.ValueMask)
			if got := e.Read(a); got != mem.ValueMask {
				t.Fatalf("max value round-trip = %#x, want %#x", got, mem.ValueMask)
			}
		})
	}
}

func TestEngineCAS(t *testing.T) {
	for name, mk := range engineFactories() {
		t.Run(name, func(t *testing.T) {
			h := mem.NewHeap()
			e := mk(h)
			a := newCells(t, h, 1)[0]
			e.Write(a, 10)

			if e.CAS(a, 11, 12) {
				t.Fatal("CAS succeeded with wrong expected value")
			}
			if got := e.Read(a); got != 10 {
				t.Fatalf("failed CAS changed the cell to %d", got)
			}
			if !e.CAS(a, 10, 11) {
				t.Fatal("CAS failed with right expected value")
			}
			if got := e.Read(a); got != 11 {
				t.Fatalf("after CAS, cell = %d, want 11", got)
			}
		})
	}
}

func TestEngineDCASSemantics(t *testing.T) {
	for name, mk := range engineFactories() {
		t.Run(name, func(t *testing.T) {
			tests := []struct {
				name         string
				init0, init1 uint64
				old0, old1   uint64
				new0, new1   uint64
				want         bool
				end0, end1   uint64
			}{
				{
					name:  "both match",
					init0: 1, init1: 2, old0: 1, old1: 2, new0: 10, new1: 20,
					want: true, end0: 10, end1: 20,
				},
				{
					name:  "first mismatch",
					init0: 1, init1: 2, old0: 9, old1: 2, new0: 10, new1: 20,
					want: false, end0: 1, end1: 2,
				},
				{
					name:  "second mismatch",
					init0: 1, init1: 2, old0: 1, old1: 9, new0: 10, new1: 20,
					want: false, end0: 1, end1: 2,
				},
				{
					name:  "both mismatch",
					init0: 1, init1: 2, old0: 7, old1: 9, new0: 10, new1: 20,
					want: false, end0: 1, end1: 2,
				},
				{
					name:  "identity update",
					init0: 5, init1: 6, old0: 5, old1: 6, new0: 5, new1: 6,
					want: true, end0: 5, end1: 6,
				},
			}
			for _, tt := range tests {
				t.Run(tt.name, func(t *testing.T) {
					h := mem.NewHeap()
					e := mk(h)
					cells := newCells(t, h, 2)
					e.Write(cells[0], tt.init0)
					e.Write(cells[1], tt.init1)

					got := e.DCAS(cells[0], cells[1], tt.old0, tt.old1, tt.new0, tt.new1)
					if got != tt.want {
						t.Errorf("DCAS = %v, want %v", got, tt.want)
					}
					if v := e.Read(cells[0]); v != tt.end0 {
						t.Errorf("cell0 = %d, want %d", v, tt.end0)
					}
					if v := e.Read(cells[1]); v != tt.end1 {
						t.Errorf("cell1 = %d, want %d", v, tt.end1)
					}
				})
			}
		})
	}
}

func TestEngineDCASReversedAddressOrder(t *testing.T) {
	for name, mk := range engineFactories() {
		t.Run(name, func(t *testing.T) {
			h := mem.NewHeap()
			e := mk(h)
			cells := newCells(t, h, 2)
			e.Write(cells[0], 1)
			e.Write(cells[1], 2)

			// Pass the higher address first; semantics must be
			// position-faithful regardless of internal sorting.
			if !e.DCAS(cells[1], cells[0], 2, 1, 20, 10) {
				t.Fatal("reversed-order DCAS failed")
			}
			if v := e.Read(cells[0]); v != 10 {
				t.Errorf("cell0 = %d, want 10", v)
			}
			if v := e.Read(cells[1]); v != 20 {
				t.Errorf("cell1 = %d, want 20", v)
			}
		})
	}
}

func TestEngineDCASSameAddress(t *testing.T) {
	for name, mk := range engineFactories() {
		t.Run(name, func(t *testing.T) {
			h := mem.NewHeap()
			e := mk(h)
			a := newCells(t, h, 1)[0]
			e.Write(a, 5)

			if e.DCAS(a, a, 5, 5, 6, 7) {
				t.Error("same-address DCAS with conflicting news succeeded")
			}
			if e.DCAS(a, a, 5, 4, 6, 6) {
				t.Error("same-address DCAS with conflicting olds succeeded")
			}
			if !e.DCAS(a, a, 5, 5, 6, 6) {
				t.Error("degenerate same-address DCAS failed")
			}
			if got := e.Read(a); got != 6 {
				t.Errorf("cell = %d, want 6", got)
			}
		})
	}
}

func TestEngineNames(t *testing.T) {
	h := mem.NewHeap()
	if got := NewLocking(h).Name(); got != "locking" {
		t.Errorf("LockingEngine name = %q", got)
	}
	if got := NewMCAS(h).Name(); got != "mcas" {
		t.Errorf("MCASEngine name = %q", got)
	}
}
