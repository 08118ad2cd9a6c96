package explore

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

// This file model-checks the DCAS engines themselves: a CellScenario's step
// hook interleaves every *internal* Load/Store/CAS of an engine.
// For the software MCAS engine it also interleaves every descriptor-field
// access and slot claim or release, so the preemption-bounded DFS exercises
// descriptor publication, installation, helping, removal and in-place reuse
// at every explored switch point; it runs with two descriptor slots, so
// claims collide. For the locking engine it interleaves every lock, unlock
// and commit store, and a thread that finds a cell locked waits until
// another thread steps. The oracle is permutation-based: because the
// engine's operations must be linearizable and every thread runs exactly one
// (or two sequential) operations, the observed (results, final cells) must
// equal the outcome of SOME sequential order of the operations.

// cellEngines builds each engine under test over h with the explorer's step
// hook.
var cellEngines = map[string]func(h *mem.Heap, step func(bool)) dcas.Engine{
	"locking": func(h *mem.Heap, step func(bool)) dcas.Engine {
		return dcas.NewLocking(h, dcas.WithStep(step))
	},
	"mcas": func(h *mem.Heap, step func(bool)) dcas.Engine {
		return dcas.NewMCAS(h, dcas.WithPoolSize(2), dcas.WithStep(step))
	},
}

// memOp is one engine operation a thread performs.
type memOp struct {
	kind       int // 0 = CAS, 1 = DCAS, 2 = Read, 3 = Write, 4 = heap store
	a0, a1     int // cell indices
	old0, old1 uint64
	new0, new1 uint64
}

// applySeq runs an op sequentially against a model memory, returning the
// boolean outcome (CAS/DCAS) or the value read (Read; reported via val).
func (op memOp) applySeq(cells []uint64) (ok bool, val uint64) {
	switch op.kind {
	case 0:
		if cells[op.a0] == op.old0 {
			cells[op.a0] = op.new0
			return true, 0
		}
		return false, 0
	case 1:
		if cells[op.a0] == op.old0 && cells[op.a1] == op.old1 {
			cells[op.a0] = op.new0
			cells[op.a1] = op.new1
			return true, 0
		}
		return false, 0
	case 2:
		return true, cells[op.a0]
	default:
		cells[op.a0] = op.new0
		return true, 0
	}
}

// outcome captures one run's observable behaviour.
type outcome struct {
	results string // per-thread op results, encoded
	final   string // final cell values, encoded
}

// legalOutcomes enumerates every interleaving-as-permutation of the threads'
// op streams (respecting per-thread order) and collects the legal outcomes.
func legalOutcomes(nCells int, threads [][]memOp) map[outcome]bool {
	legal := map[outcome]bool{}
	idx := make([]int, len(threads))
	results := make([][]string, len(threads))
	for i := range results {
		results[i] = make([]string, len(threads[i]))
	}
	cells := make([]uint64, nCells)

	var rec func()
	rec = func() {
		doneAll := true
		for t := range threads {
			if idx[t] < len(threads[t]) {
				doneAll = false
				// Take thread t's next op.
				op := threads[t][idx[t]]
				saved := append([]uint64(nil), cells...)
				ok, val := op.applySeq(cells)
				results[t][idx[t]] = fmt.Sprint(ok, val)
				idx[t]++
				rec()
				idx[t]--
				copy(cells, saved)
			}
		}
		if doneAll {
			legal[outcome{results: fmt.Sprint(results), final: fmt.Sprint(cells)}] = true
		}
	}
	rec()
	return legal
}

// engineCellScenario builds an engine with the step hook and runs the
// threads' op streams, checking the observed outcome against the oracle.
func engineCellScenario(mk func(*mem.Heap, func(bool)) dcas.Engine, nCells int, threads [][]memOp, legal map[outcome]bool) CellScenario {
	// Runs are sequential, so they share one heap (building a heap costs
	// more than a run) and each starts from zeroed cells.
	h := mem.NewHeap(mem.WithAllocShards(1))
	id := h.MustRegisterType(mem.TypeDesc{Name: "cells", NumFields: nCells})
	r := h.MustAlloc(id)
	addr := make([]mem.Addr, nCells)
	for i := range addr {
		addr[i] = h.FieldAddr(r, i)
	}
	return func(step func(bool)) ([]func(), func() error) {
		for _, a := range addr {
			h.Store(a, 0)
		}
		e := mk(h, step)

		results := make([][]string, len(threads))
		for i := range results {
			results[i] = make([]string, len(threads[i]))
		}
		bodies := make([]func(), len(threads))
		for t, ops := range threads {
			t, ops := t, ops
			bodies[t] = func() {
				for i, op := range ops {
					var ok bool
					var val uint64
					switch op.kind {
					case 0:
						ok = e.CAS(addr[op.a0], op.old0, op.new0)
					case 1:
						ok = e.DCAS(addr[op.a0], addr[op.a1], op.old0, op.old1, op.new0, op.new1)
					case 2:
						ok, val = true, e.Read(addr[op.a0])
					case 4:
						ok = true
						step(false)
						h.Store(addr[op.a0], op.new0)
					default:
						ok = true
						e.Write(addr[op.a0], op.new0)
					}
					results[t][i] = fmt.Sprint(ok, val)
				}
			}
		}
		check := func() error {
			final := make([]uint64, nCells)
			for i := range final {
				final[i] = e.Read(addr[i])
			}
			got := outcome{results: fmt.Sprint(results), final: fmt.Sprint(final)}
			if !legal[got] {
				return fmt.Errorf("outcome %+v not in the %d legal sequential outcomes", got, len(legal))
			}
			return nil
		}
		return bodies, check
	}
}

// checkMCASLinearizable explores the scenario on every engine and fails on
// any outcome outside the sequential-oracle set.
func checkMCASLinearizable(t *testing.T, name string, nCells int, threads [][]memOp, preemptions, maxRuns int) {
	t.Helper()
	checkLinearizableOn(t, slices.Sorted(maps.Keys(cellEngines)), name, nCells, threads, preemptions, maxRuns)
}

// checkLinearizableOn is checkMCASLinearizable on the named engines only.
func checkLinearizableOn(t *testing.T, engines []string, name string, nCells int, threads [][]memOp, preemptions, maxRuns int) {
	t.Helper()
	legal := legalOutcomes(nCells, threads)
	for _, engine := range engines {
		mk := cellEngines[engine]
		t.Run(engine, func(t *testing.T) {
			s := engineCellScenario(mk, nCells, threads, legal)
			res := RunDFS(s, preemptions, maxRuns, 100_000)
			if res.Violations != 0 {
				t.Errorf("%s: %d non-linearizable outcomes in %d schedules; first: %v (trace %v)",
					name, res.Violations, res.Runs, res.FirstError, res.FirstViolation)
			}
			if res.Incomplete != 0 {
				t.Errorf("%s: %d runs hit the step cap (livelock?)", name, res.Incomplete)
			}
			t.Logf("%s: %d schedules explored, %d legal outcomes, all conform", name, res.Runs, len(legal))
		})
	}
}

func cas(a int, old, new uint64) memOp { return memOp{kind: 0, a0: a, old0: old, new0: new} }
func read(a int) memOp                 { return memOp{kind: 2, a0: a} }
func write(a int, v uint64) memOp      { return memOp{kind: 3, a0: a, new0: v} }
func dcasOp(a0, a1 int, o0, o1, n0, n1 uint64) memOp {
	return memOp{kind: 1, a0: a0, a1: a1, old0: o0, old1: o1, new0: n0, new1: n1}
}

func TestMCASModelCheckCompetingDCAS(t *testing.T) {
	checkMCASLinearizable(t, "two DCAS same cells", 2, [][]memOp{
		{dcasOp(0, 1, 0, 0, 1, 1)},
		{dcasOp(0, 1, 0, 0, 2, 2)},
	}, 3, 50_000)
}

func TestMCASModelCheckDCASvsCAS(t *testing.T) {
	checkMCASLinearizable(t, "DCAS vs CAS on shared cell", 2, [][]memOp{
		{dcasOp(0, 1, 0, 0, 1, 1)},
		{cas(1, 0, 5)},
	}, 3, 50_000)
}

func TestMCASModelCheckChainedOverlap(t *testing.T) {
	checkMCASLinearizable(t, "chained DCAS overlap", 3, [][]memOp{
		{dcasOp(0, 1, 0, 0, 1, 1)},
		{dcasOp(1, 2, 1, 0, 2, 2)},
	}, 3, 50_000)
}

func TestMCASModelCheckReaderDuringDCAS(t *testing.T) {
	checkMCASLinearizable(t, "reader during DCAS", 2, [][]memOp{
		{dcasOp(0, 1, 0, 0, 7, 7)},
		{read(0), read(1)},
	}, 3, 50_000)
}

func TestMCASModelCheckWriterInterference(t *testing.T) {
	checkMCASLinearizable(t, "writer vs DCAS", 2, [][]memOp{
		{dcasOp(0, 1, 0, 0, 1, 1)},
		{write(0, 9)},
	}, 2, 50_000)
}

// TestMCASModelCheckFirstInstallVsWriter races the owner's RDCSS-free first
// install on the lowest cell against a thread that moves that cell away with
// a CAS and writes it back (ABA), so the install may meet either value, and
// a DCAS that succeeded without holding the cell shows in the outcome.
func TestMCASModelCheckFirstInstallVsWriter(t *testing.T) {
	checkMCASLinearizable(t, "first install vs ABA writer", 2, [][]memOp{
		{dcasOp(0, 1, 0, 0, 1, 1)},
		{cas(0, 0, 9), write(0, 0)},
	}, 3, 50_000)
}

// TestMCASModelCheckSlotReuse runs two back-to-back DCASes on one thread, so
// the second reuses the first's slot in place, while a reader finds and
// helps the first: a helper holding a stale descriptor reference must see
// the reuse through the version and leave the new op alone.
func TestMCASModelCheckSlotReuse(t *testing.T) {
	checkMCASLinearizable(t, "slot reuse vs helping reader", 2, [][]memOp{
		{dcasOp(0, 1, 0, 0, 1, 1), dcasOp(0, 1, 1, 1, 2, 2)},
		{read(1), read(0)},
	}, 3, 50_000)
}

func TestMCASModelCheckThreeWay(t *testing.T) {
	checkMCASLinearizable(t, "three-way contention", 2, [][]memOp{
		{dcasOp(0, 1, 0, 0, 1, 1)},
		{dcasOp(0, 1, 0, 0, 2, 2)},
		{cas(0, 0, 3)},
	}, 2, 60_000)
}

// heapStore is a plain store straight into the cell, past the engine: the
// way mem.Free poisons a freed object's cells (kind 4).
func heapStore(a int, v uint64) memOp { return memOp{kind: 4, a0: a, new0: v} }

// TestMCASModelCheckFailedDCASKeepsHeapStore races a DCAS that fails on its
// second cell against a heap store into its first cell, the shape of a Load
// whose DCAS holds a count cell that the heap poisons. The failed DCAS must
// leave the cell as it found it, the stored value included: a locking-engine
// unlock that wrote the old value back with a plain store would lose it.
func TestMCASModelCheckFailedDCASKeepsHeapStore(t *testing.T) {
	checkMCASLinearizable(t, "failed DCAS vs heap store", 2, [][]memOp{
		{dcasOp(0, 1, 0, 5, 1, 1)},
		{heapStore(0, 9)},
	}, 3, 50_000)
}

// cmpSwap is a compare-only DCAS (kind 1 with old == new on cell c): it
// compares cell c with cOld and swaps cell s from sOld to sNew, the shape of
// the paper's LFRCLoad, which compares the pointer cell and bumps the count.
func cmpSwap(c, s int, cOld, sOld, sNew uint64) memOp {
	return dcasOp(c, s, cOld, sOld, cOld, sNew)
}

// TestMCASModelCheckCompareOnlyVsCAS races a compare-only DCAS against a CAS
// that moves the compared cell and then reads the swapped one. A DCAS that
// committed without reading the compared cell at a point where its swapped
// cell was held would let the reader see the swap undone after the move.
func TestMCASModelCheckCompareOnlyVsCAS(t *testing.T) {
	checkMCASLinearizable(t, "compare-only DCAS vs CAS on compared cell", 2, [][]memOp{
		{cmpSwap(0, 1, 0, 0, 1)},
		{cas(0, 0, 9), read(1)},
	}, 3, 50_000)
}

// TestMCASModelCheckCompareOnlyVsLockOrder races a compare-only DCAS that
// compares cell 0 and swaps cell 1 against a two-cell DCAS, which locks
// cell 0 first (address order) and then waits on cell 1. Every run must
// finish within the step cap: a compare-only DCAS that waited on cell 0
// while holding cell 1 would deadlock against it.
func TestMCASModelCheckCompareOnlyVsLockOrder(t *testing.T) {
	checkMCASLinearizable(t, "compare-only DCAS vs two-cell DCAS", 2, [][]memOp{
		{cmpSwap(0, 1, 0, 0, 1)},
		{dcasOp(0, 1, 0, 0, 2, 2)},
	}, 3, 50_000)
}

// TestMCASModelCheckReaderDuringCompareOnly reads the swapped cell before
// and after the compared one while a compare-only DCAS runs: no read may see
// the swap in a state the DCAS's linearization point does not explain.
func TestMCASModelCheckReaderDuringCompareOnly(t *testing.T) {
	checkMCASLinearizable(t, "reader during compare-only DCAS", 2, [][]memOp{
		{cmpSwap(0, 1, 0, 0, 7)},
		{read(1), read(0), read(1)},
	}, 3, 50_000)
}

// TestMCASModelCheckCrossedCompareOnly races two compare-only DCASes whose
// cells cross: each compares the cell the other swaps. On the MCAS engine
// each op's decider can find the other's descriptor in its compared cell,
// where it either retries or, from the lower slot, forces the other op to
// retry. A bounded search cannot show a livelock the slot order prevents;
// internal/dcas TestMCASCompareOnlySlotOrder checks that rule directly.
func TestMCASModelCheckCrossedCompareOnly(t *testing.T) {
	checkMCASLinearizable(t, "crossed compare-only DCASes", 2, [][]memOp{
		{cmpSwap(0, 1, 0, 0, 1)},
		{cmpSwap(1, 0, 0, 0, 2)},
	}, 3, 50_000)
}

// TestMCASModelCheckCompareOnlyAboveVsDCAS is CompareOnlyVsLockOrder with
// the compare-only DCAS's cells the other way round: it compares the higher
// cell, so the two-cell DCAS installs first on the cell the compare-only op
// swaps.
func TestMCASModelCheckCompareOnlyAboveVsDCAS(t *testing.T) {
	checkMCASLinearizable(t, "compare-only DCAS on the higher cell vs two-cell DCAS", 2, [][]memOp{
		{cmpSwap(1, 0, 0, 0, 1)},
		{dcasOp(0, 1, 0, 0, 2, 2)},
	}, 3, 50_000)
}

// TestMCASModelCheckCompareOnlySlotReuse is SlotReuse for compare-only
// DCASes: the second op reuses the first's slot in place while a reader
// finds and settles the first, so a stale settle must leave the second op
// alone.
func TestMCASModelCheckCompareOnlySlotReuse(t *testing.T) {
	checkMCASLinearizable(t, "compare-only slot reuse vs helping reader", 2, [][]memOp{
		{cmpSwap(0, 1, 0, 0, 1), cmpSwap(0, 1, 0, 1, 2)},
		{read(1), read(0)},
	}, 3, 50_000)
}

// TestMCASModelCheckCompareOnlyKeepsHeapStore races a compare-only DCAS
// against a heap store into its swapped cell, the shape of a Load whose
// DCAS holds a count cell that the heap poisons: releasing the swapped
// cell, by commit or unlock, must not overwrite the stored value.
func TestMCASModelCheckCompareOnlyKeepsHeapStore(t *testing.T) {
	checkMCASLinearizable(t, "compare-only DCAS vs heap store", 2, [][]memOp{
		{cmpSwap(0, 1, 0, 0, 1)},
		{heapStore(1, 9)},
	}, 3, 50_000)
}

// TestMCASModelCheckDCASKeepsHeapStore races a two-cell DCAS that succeeds
// against a heap store into one of its cells: the commit of a held cell must
// leave a value the heap stored into it meanwhile, as if the store came
// just after the DCAS.
func TestMCASModelCheckDCASKeepsHeapStore(t *testing.T) {
	checkMCASLinearizable(t, "two-cell DCAS vs heap store", 2, [][]memOp{
		{dcasOp(0, 1, 0, 0, 1, 1)},
		{heapStore(1, 9)},
	}, 3, 50_000)
}
