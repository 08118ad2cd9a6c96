package dcas

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"lfrc/internal/mem"
)

func TestDescriptorRefPacking(t *testing.T) {
	f := func(rdcss bool, slot uint32, ver uint64) bool {
		s := slot & slotMask
		v := ver & verMask
		ref := packRef(rdcss, s, v)
		gotSlot, gotVer := unpackRef(ref)
		return isDescriptor(ref) &&
			isRDCSSRef(ref) == rdcss &&
			gotSlot == s &&
			gotVer == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplicationValuesAreNotDescriptors(t *testing.T) {
	f := func(v uint64) bool {
		return !isDescriptor(v & mem.ValueMask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConcurrentCounterCAS drives a shared counter with engine CAS from many
// goroutines; the total must be exact for both engines.
func TestConcurrentCounterCAS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range engineFactories() {
		t.Run(name, func(t *testing.T) {
			h := mem.NewHeap()
			e := mk(h)
			a := newCells(t, h, 1)[0]

			const workers, perW = 8, 3000
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						for {
							cur := e.Read(a)
							if e.CAS(a, cur, cur+1) {
								break
							}
						}
					}
				}()
			}
			wg.Wait()
			if got := e.Read(a); got != workers*perW {
				t.Errorf("counter = %d, want %d", got, workers*perW)
			}
		})
	}
}

// TestConcurrentTransferInvariant runs DCAS "transfers" between two cells;
// the sum is invariant under every successful DCAS, and the final state must
// account for exactly the successful operations.
func TestConcurrentTransferInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range engineFactories() {
		t.Run(name, func(t *testing.T) {
			h := mem.NewHeap()
			e := mk(h)
			cells := newCells(t, h, 2)
			const total = 1 << 20
			e.Write(cells[0], total)
			e.Write(cells[1], 0)

			const workers, perW = 8, 2000
			succ := make([]int64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						x := e.Read(cells[0])
						y := e.Read(cells[1])
						if x == 0 {
							continue
						}
						if e.DCAS(cells[0], cells[1], x, y, x-1, y+1) {
							succ[w]++
						}
					}
				}(w)
			}
			wg.Wait()

			var wins int64
			for _, s := range succ {
				wins += s
			}
			x, y := e.Read(cells[0]), e.Read(cells[1])
			if x+y != total {
				t.Errorf("sum invariant broken: %d + %d != %d", x, y, total)
			}
			if y != uint64(wins) {
				t.Errorf("cell1 = %d, want number of successful DCAS = %d", y, wins)
			}
		})
	}
}

// TestConcurrentRandomPairsDCAS has workers DCAS-increment random pairs from
// a pool of cells. Each success adds exactly 1 to each of two cells, so the
// grand total must equal 2 × successes; additionally no read may ever
// observe a descriptor-tagged value.
func TestConcurrentRandomPairsDCAS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range engineFactories() {
		t.Run(name, func(t *testing.T) {
			h := mem.NewHeap()
			e := mk(h)
			cells := newCells(t, h, 8)

			const workers, perW = 8, 3000
			succ := make([]int64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for i := 0; i < perW; i++ {
						i0 := rng.Intn(len(cells))
						i1 := rng.Intn(len(cells))
						if i0 == i1 {
							i1 = (i1 + 1) % len(cells)
						}
						a0, a1 := cells[i0], cells[i1]
						x := e.Read(a0)
						y := e.Read(a1)
						if !isValue(x) || !isValue(y) {
							t.Errorf("Read returned a descriptor: %#x %#x", x, y)
							return
						}
						if e.DCAS(a0, a1, x, y, x+1, y+1) {
							succ[w]++
						}
					}
				}(w)
			}
			wg.Wait()

			var wins int64
			for _, s := range succ {
				wins += s
			}
			var sum uint64
			for _, a := range cells {
				v := e.Read(a)
				if !isValue(v) {
					t.Fatalf("descriptor left in cell: %#x", v)
				}
				sum += v
			}
			if sum != 2*uint64(wins) {
				t.Errorf("sum = %d, want 2×successes = %d", sum, 2*wins)
			}
		})
	}
}

func isValue(v uint64) bool { return !isDescriptor(v) }

// TestConcurrentCompareOnlyCounts has workers bump one of two cells with a
// compare-only DCAS that compares the other, in both directions, so the
// ops' cells cross, while other workers bump both with a full DCAS. Every
// success adds exactly 1 to each cell it swaps, so each final cell must
// equal the successes that swapped it.
func TestConcurrentCompareOnlyCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range engineFactories() {
		t.Run(name, func(t *testing.T) {
			h := mem.NewHeap()
			e := mk(h)
			c := newCells(t, h, 2)

			const workers, perW = 6, 2000
			var bumped [3]atomic.Int64 // cell 0 only, cell 1 only, both
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func(kind int) {
					defer wg.Done()
					for range perW {
						x, y := e.Read(c[0]), e.Read(c[1])
						nx, ny := x+1, y+1
						switch kind {
						case 0:
							ny = y // compare cell 1
						case 1:
							nx = x // compare cell 0
						}
						if e.DCAS(c[0], c[1], x, y, nx, ny) {
							bumped[kind].Add(1)
						}
					}
				}(w % 3)
			}
			wg.Wait()

			want0 := uint64(bumped[0].Load() + bumped[2].Load())
			want1 := uint64(bumped[1].Load() + bumped[2].Load())
			if x, y := e.Read(c[0]), e.Read(c[1]); x != want0 || y != want1 {
				t.Errorf("cells = %d, %d; want %d, %d (successes %d, %d, %d)",
					x, y, want0, want1, bumped[0].Load(), bumped[1].Load(), bumped[2].Load())
			}
		})
	}
}

// TestMCASSmallPool forces heavy descriptor-slot contention: with a pool of
// just two slots and eight workers, operations must still complete and stay
// exact.
func TestMCASSmallPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	h := mem.NewHeap()
	e := NewMCAS(h, WithPoolSize(2))
	cells := newCells(t, h, 2)

	const workers, perW = 8, 500
	succ := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				for {
					x := e.Read(cells[0])
					y := e.Read(cells[1])
					if e.DCAS(cells[0], cells[1], x, y, x+1, y+1) {
						succ[w]++
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()

	want := uint64(workers * perW)
	if x := e.Read(cells[0]); x != want {
		t.Errorf("cell0 = %d, want %d", x, want)
	}
	if y := e.Read(cells[1]); y != want {
		t.Errorf("cell1 = %d, want %d", y, want)
	}
}

// TestMCASFirstInstallMismatch covers the RDCSS-free first install: a DCAS
// whose lowest location mismatches fails in either argument order, leaves
// both cells holding plain values, and never publishes an RDCSS descriptor.
func TestMCASFirstInstallMismatch(t *testing.T) {
	h := mem.NewHeap()
	e := NewMCAS(h)
	c := newCells(t, h, 2) // c[0] is the lower address
	e.Write(c[0], 5)
	if e.DCAS(c[0], c[1], 0, 0, 1, 1) || e.DCAS(c[1], c[0], 0, 0, 1, 1) {
		t.Fatal("DCAS succeeded with a mismatched lowest location")
	}
	if v0, v1 := h.Load(c[0]), h.Load(c[1]); v0 != 5 || v1 != 0 {
		t.Errorf("cells = %#x, %#x; want 5, 0", v0, v1)
	}
	for i := range e.slots {
		s := &e.slots[i]
		if s.busy.Load() != 0 || s.mcas.status.Load()>>2%2 != 0 || s.rdcss.ver.Load() != 0 {
			t.Errorf("slot %d: busy=%d mcas status=%#x rdcss ver=%d; want released, retired, no RDCSS",
				i, s.busy.Load(), s.mcas.status.Load(), s.rdcss.ver.Load())
		}
	}
}

// TestMCASSlotReuseInPlace runs 100k sequential DCASes from one goroutine:
// each must bump exactly one slot's MCAS version by 2 (publish, retire), the
// slot's own RDCSS descriptor must serve the second install, and one slot
// must serve nearly every op.
func TestMCASSlotReuseInPlace(t *testing.T) {
	if s := unsafe.Sizeof(descSlot{}); s != 128 {
		t.Errorf("descSlot is %d bytes, want 128 (two cache lines)", s)
	}
	// Slots are probed from the running P's id, so reuse in place is a
	// per-P property: on one P the goroutine cannot migrate.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := mem.NewHeap()
	e := NewMCAS(h, WithPoolSize(8))
	c := newCells(t, h, 2)
	const ops = 100_000
	last := make([]uint64, len(e.slots))
	uses := make([]int, len(e.slots))
	for i := range uint64(ops) {
		if !e.DCAS(c[0], c[1], i, i, i+1, i+1) {
			t.Fatalf("op %d failed", i)
		}
		moved := -1
		for s := range e.slots {
			v := e.slots[s].mcas.status.Load() >> 2
			if v == last[s] {
				continue
			}
			if v != last[s]+2 || moved >= 0 {
				t.Fatalf("op %d: slot %d version %d -> %d (another slot moved: %d)", i, s, last[s], v, moved)
			}
			last[s], moved = v, s
		}
		if moved < 0 {
			t.Fatalf("op %d moved no slot's version", i)
		}
		if r := e.slots[moved].rdcss.ver.Load(); r != last[moved] {
			t.Fatalf("op %d: slot %d rdcss version %d, want %d", i, moved, r, last[moved])
		}
		uses[moved]++
	}
	if top := slices.Max(uses); top < ops*99/100 {
		t.Errorf("busiest slot served %d of %d ops (%v); want one slot reused in place", top, ops, uses)
	}
}

// BenchmarkMCASDCAS measures one DCAS on a cell pair: from one goroutine
// (serial), and from two goroutines reading and DCASing the same pair
// (shared, ns per op across both, success share reported).
func BenchmarkMCASDCAS(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		h := mem.NewHeap()
		e := NewMCAS(h)
		c := newCells(b, h, 2)
		b.ResetTimer()
		for i := range uint64(b.N) {
			e.DCAS(c[0], c[1], i, i, i+1, i+1)
		}
	})
	b.Run("shared", func(b *testing.B) {
		h := mem.NewHeap()
		e := NewMCAS(h)
		c := newCells(b, h, 2)
		var wins atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := range 2 {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for range n {
					o0, o1 := e.Read(c[0]), e.Read(c[1])
					if e.DCAS(c[0], c[1], o0, o1, o0+1, o1+1) {
						wins.Add(1)
					}
				}
			}(b.N/2 + w*(b.N%2))
		}
		wg.Wait()
		b.ReportMetric(float64(wins.Load())/float64(b.N), "success")
	})
}

// TestMCASMixedSingleAndDouble mixes single CAS, DCAS and writes on
// overlapping cells and then checks a conservation invariant: cell0 is only
// ever moved in lockstep with cell1 by DCAS, while CAS increments cell2.
func TestMCASMixedSingleAndDouble(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	h := mem.NewHeap()
	e := NewMCAS(h)
	cells := newCells(t, h, 3)

	const workers, perW = 6, 2000
	var wg sync.WaitGroup
	dcasWins := make([]int64, workers)
	casWins := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if i%2 == 0 {
					x := e.Read(cells[0])
					y := e.Read(cells[1])
					if e.DCAS(cells[0], cells[1], x, y, x+1, y+1) {
						dcasWins[w]++
					}
				} else {
					z := e.Read(cells[2])
					if e.CAS(cells[2], z, z+1) {
						casWins[w]++
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var dw, cw int64
	for w := 0; w < workers; w++ {
		dw += dcasWins[w]
		cw += casWins[w]
	}
	if x, y := e.Read(cells[0]), e.Read(cells[1]); x != y || x != uint64(dw) {
		t.Errorf("cells0/1 = %d/%d, want both %d", x, y, dw)
	}
	if z := e.Read(cells[2]); z != uint64(cw) {
		t.Errorf("cell2 = %d, want %d", z, cw)
	}
}

// TestEnginesAgreeSequentially replays an identical random operation script
// against both engines and requires identical results and final state: the
// lock-free construction must be observationally equivalent to the modeled
// hardware.
func TestEnginesAgreeSequentially(t *testing.T) {
	f := func(seed int64) bool {
		const nCells = 6
		run := func(e Engine, h *mem.Heap, cells []mem.Addr) ([]bool, []uint64) {
			rng := rand.New(rand.NewSource(seed))
			var outcomes []bool
			for i := 0; i < 200; i++ {
				op := rng.Intn(5)
				a0 := cells[rng.Intn(nCells)]
				a1 := cells[rng.Intn(nCells)]
				v0 := uint64(rng.Intn(4))
				v1 := uint64(rng.Intn(4))
				n0 := uint64(rng.Intn(4))
				n1 := uint64(rng.Intn(4))
				switch op {
				case 0:
					e.Write(a0, n0)
				case 1:
					outcomes = append(outcomes, e.CAS(a0, v0, n0))
				case 2:
					outcomes = append(outcomes, e.DCAS(a0, a1, v0, v1, n0, n1))
				case 3: // compare-only on a0
					outcomes = append(outcomes, e.DCAS(a0, a1, v0, v1, v0, (v1+1)%4))
				case 4: // compare-only on a1
					outcomes = append(outcomes, e.DCAS(a0, a1, v0, v1, (v0+1)%4, v1))
				}
			}
			final := make([]uint64, nCells)
			for i, a := range cells {
				final[i] = e.Read(a)
			}
			return outcomes, final
		}

		h1 := mem.NewHeap()
		id1 := h1.MustRegisterType(mem.TypeDesc{Name: "c", NumFields: nCells})
		r1 := h1.MustAlloc(id1)
		cells1 := make([]mem.Addr, nCells)
		for i := range cells1 {
			cells1[i] = h1.FieldAddr(r1, i)
		}
		h2 := mem.NewHeap()
		id2 := h2.MustRegisterType(mem.TypeDesc{Name: "c", NumFields: nCells})
		r2 := h2.MustAlloc(id2)
		cells2 := make([]mem.Addr, nCells)
		for i := range cells2 {
			cells2[i] = h2.FieldAddr(r2, i)
		}

		o1, f1 := run(NewLocking(h1), h1, cells1)
		o2, f2 := run(NewMCAS(h2), h2, cells2)
		if len(o1) != len(o2) {
			return false
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				return false
			}
		}
		for i := range f1 {
			if f1[i] != f2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMCASCompareOnlySlotOrder sets up two compare-only ops whose cells
// cross, each descriptor installed in the cell the other compares, and
// settles each in turn. The op from the higher slot finds the other's
// descriptor and retries, leaving it alone; the op from the lower slot
// forces the other to retry and decides on the value that leaves in its
// compared cell, so the pair cannot keep each other retrying.
func TestMCASCompareOnlySlotOrder(t *testing.T) {
	h := mem.NewHeap()
	e := NewMCAS(h, WithPoolSize(2))
	c := newCells(t, h, 2)
	lo := cmpOp{c: c[0], cOld: 0, s: c[1], sOld: 0, sNew: 1}
	hi := cmpOp{c: c[1], cOld: 0, s: c[0], sOld: 0, sNew: 2}
	loRef, hiRef := e.publishCmp(0, &lo), e.publishCmp(1, &hi)
	h.Store(lo.s, loRef)
	h.Store(hi.s, hiRef)

	if st := e.settleCmp(hiRef, &hi); st != stRetry {
		t.Fatalf("higher slot settled to state %d, want retry", st)
	}
	if st, _ := e.statusOf(loRef); st != stUndecided || h.Load(lo.s) != loRef {
		t.Fatalf("lower slot's op: state %d, swapped cell %#x; want it undecided and in place", st, h.Load(lo.s))
	}

	// The higher slot's owner starts over: retire, publish, install.
	_, ver := unpackRef(hiRef)
	e.slots[1].mcas.status.Store((ver + 1) << 2)
	hiRef = e.publishCmp(1, &hi)
	h.Store(hi.s, hiRef)

	if st := e.settleCmp(loRef, &lo); st != stSucceeded {
		t.Fatalf("lower slot settled to state %d, want succeeded", st)
	}
	if st, _ := e.statusOf(hiRef); st != stRetry {
		t.Errorf("higher slot's op left in state %d, want forced to retry", st)
	}
	if v0, v1 := h.Load(c[0]), h.Load(c[1]); v0 != 0 || v1 != 1 {
		t.Errorf("cells = %#x, %#x; want 0, 1", v0, v1)
	}
}

// TestMCASStalledCompareOnlyOwnerBlocksNoOne parks a compare-only DCAS's
// owner right after its descriptor lands in the swapped cell. While it stays
// parked, another goroutine's CAS on the swapped cell, Reads of both cells
// and a two-cell DCAS over the compared cell must all complete. Once
// released, the owner's result and the final cells must be those of some
// sequential order of the two goroutines' operations.
func TestMCASStalledCompareOnlyOwnerBlocksNoOne(t *testing.T) {
	h := mem.NewHeap()
	cells := newCells(t, h, 2)
	c, s := cells[0], cells[1]
	var armed atomic.Bool
	parked, resume := make(chan struct{}), make(chan struct{})
	e := NewMCAS(h, WithStep(func(bool) {
		if armed.Load() && isDescriptor(h.Load(s)) {
			armed.Store(false)
			close(parked)
			<-resume
		}
	}))
	e.Write(c, 10)
	e.Write(s, 20)

	// The model runs the owner's op (compare c with 10, swap s 20 -> 21)
	// and the other goroutine's ops in a sequential order; owner says after
	// how many of the other's ops the owner's runs.
	type result struct {
		owner bool
		other string
		final [2]uint64
	}
	model := func(owner int) result {
		m := [2]uint64{10, 20}
		var r result
		var other []any
		for i := 0; i <= 4; i++ {
			if i == owner {
				if r.owner = m[0] == 10 && m[1] == 20; r.owner {
					m[1] = 21
				}
			}
			switch i {
			case 0:
				ok := m[1] == 21
				if ok {
					m[1] = 22
				}
				other = append(other, ok)
			case 1, 2:
				other = append(other, m[i-1])
			case 3:
				ok := m[0] == 10 && m[1] == 22
				if ok {
					m[0], m[1] = 11, 23
				}
				other = append(other, ok)
			}
		}
		r.other, r.final = fmt.Sprint(other...), m
		return r
	}

	armed.Store(true)
	ownerDone := make(chan bool, 1)
	go func() { ownerDone <- e.DCAS(c, s, 10, 20, 10, 21) }()
	released := false
	defer func() {
		if !released {
			close(resume)
		}
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the owner never installed its descriptor")
	}

	otherDone := make(chan []any, 1)
	go func() {
		ok := e.CAS(s, 21, 22)
		v0, v1 := e.Read(c), e.Read(s)
		otherDone <- []any{ok, v0, v1, e.DCAS(c, s, 10, 22, 11, 23)}
	}()
	var other []any
	select {
	case other = <-otherDone:
	case <-time.After(10 * time.Second):
		t.Fatal("operations on the stalled owner's cells did not complete")
	}
	close(resume)
	released = true
	got := result{owner: <-ownerDone, other: fmt.Sprint(other...), final: [2]uint64{e.Read(c), e.Read(s)}}

	for owner := 0; owner <= 4; owner++ {
		if model(owner) == got {
			return
		}
	}
	t.Errorf("outcome %+v is explained by no sequential order", got)
}
