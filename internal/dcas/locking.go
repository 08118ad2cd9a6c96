package dcas

import (
	"runtime"

	"lfrc/internal/mem"
)

// lockBit marks a cell held by an in-flight DCAS of the LockingEngine. It is
// the bit the MCASEngine uses as its descriptor tag; the two engines never
// share a heap, and application values keep it clear (mem.ValueMask).
const lockBit = descBit

// LockingEngine models a hardware DCAS with a lock bit in every cell: the
// per-cell lock stands in for the atomicity the original instruction had.
//
//   - CAS is one hardware CAS. Only if it fails on a locked cell does it
//     wait for the unlock and compare again, so a CAS never fails against a
//     DCAS that is itself going to fail.
//   - DCAS locks its two cells in address order, each with a CAS from the
//     expected value to the same value with lockBit set. A cell that holds
//     a different value fails the operation at once and releases the cell
//     already locked; once both cells are locked the operation commits by
//     swapping each locked word for its new value, which also unlocks it.
//   - A DCAS that writes one of its cells back unchanged (old == new, the
//     shape of the paper's LFRCLoad, which compares the pointer cell and
//     swaps the count) is compare-only on that cell: it locks just the
//     swapped cell, then loads the compared one. If the load finds the
//     expected value the DCAS commits by storing the swapped cell, and the
//     load is its linearization point: both cells held their expected
//     values at that instant, the swapped one because it was locked. If the
//     compared cell is itself locked, the DCAS unlocks, waits the lock out
//     with Read and tries again, so it never waits while it holds a lock
//     and cannot deadlock against an operation that locked the compared
//     cell first. The compared cell is never written, so its line is not
//     pulled away from the threads reading it.
//   - The compare-only path can livelock, though. Two compare-only DCASes
//     whose cells cross (each compares the cell the other swaps) can each
//     lock, find the other's lock, unlock and retry in lockstep: under a
//     round-robin schedule such a pair did not finish in 100000 steps,
//     where the MCAS engine's pair finishes. The hardware DCAS this engine
//     models is one atomic instruction, so the caveat belongs to the
//     simulation's locks, like the blocking below, not to the algorithm.
//   - Read and Write wait while a cell is locked, so no reader sees a DCAS
//     half done. A waiter yields its processor between looks.
//
// Every release of a lock, a commit or a failed operation's unlock, is a CAS
// from the locked word, never a plain store: the engine is atomic only
// against its own operations, and a value the heap stores straight into a
// held cell (the poison mem.Free writes) must survive the release.
//
// Waiting on a lock makes the engine blocking: its lock-freedom is a
// property of the modeled hardware, not of the simulation.
type LockingEngine struct {
	h    *mem.Heap
	step func(wait bool) // the WithStep hook; nil outside the explorer
}

var _ Engine = (*LockingEngine)(nil)

// NewLocking returns a LockingEngine over h. With WithStep, the engine calls
// the hook before each heap access and, with wait set, each time it finds a
// cell locked; it ignores WithPoolSize.
func NewLocking(h *mem.Heap, opts ...Option) *LockingEngine {
	cfg := newConfig(opts)
	return &LockingEngine{h: h, step: cfg.step}
}

// Name implements Engine.
func (e *LockingEngine) Name() string { return "locking" }

// yield hands control to the WithStep hook, if any, before a heap access.
// It inlines, so without a hook it costs one branch and no call.
func (e *LockingEngine) yield() {
	if e.step != nil {
		e.step(false)
	}
}

// backoff waits for another operation to release a locked cell. It yields
// the processor at once rather than spinning: with every thread on two
// cells, re-reading a locked cell keeps pulling its line away from the
// holder, and on a 2-CPU host a 32-read spin before yielding nearly doubled
// the cost of a shared DCAS against yielding right away.
func (e *LockingEngine) backoff() {
	if e.step != nil {
		e.step(true)
	} else {
		runtime.Gosched()
	}
}

// Read implements Engine.
func (e *LockingEngine) Read(a mem.Addr) uint64 {
	e.yield()
	v := e.h.Load(a)
	for v&lockBit != 0 {
		e.backoff()
		e.yield()
		v = e.h.Load(a)
	}
	return v
}

// Write implements Engine.
func (e *LockingEngine) Write(a mem.Addr, v uint64) {
	for !e.CAS(a, e.Read(a), v) {
	}
}

// CAS implements Engine. A failed hardware CAS re-reads the cell, waiting
// out a lock, and tries again if the cell still holds old.
func (e *LockingEngine) CAS(a mem.Addr, old, new uint64) bool {
	for {
		e.yield()
		if e.h.CAS(a, old, new) {
			return true
		}
		if e.Read(a) != old {
			return false
		}
	}
}

// lock locks the cell at a if it holds old, waiting out another operation's
// lock. It reports false if the cell holds a different value.
func (e *LockingEngine) lock(a mem.Addr, old uint64) bool {
	return e.CAS(a, old, old|lockBit)
}

// unlock releases a lock taken on a cell that held old, leaving the cell as
// it was. If the heap poisoned the cell meanwhile, the poison stays.
func (e *LockingEngine) unlock(a mem.Addr, old uint64) {
	e.yield()
	e.h.CAS(a, old|lockBit, old)
}

// DCAS implements Engine.
func (e *LockingEngine) DCAS(a0, a1 mem.Addr, old0, old1, new0, new1 uint64) bool {
	if a0 == a1 {
		if old0 != old1 || new0 != new1 {
			return false
		}
		return e.CAS(a0, old0, new0)
	}
	if old0 == new0 {
		return e.compareSwap(a0, old0, a1, old1, new1)
	}
	if old1 == new1 {
		return e.compareSwap(a1, old1, a0, old0, new0)
	}
	if a0 > a1 {
		a0, a1, old0, old1, new0, new1 = a1, a0, old1, old0, new1, new0
	}
	if !e.lock(a0, old0) {
		return false
	}
	if !e.lock(a1, old1) {
		e.unlock(a0, old0)
		return false
	}
	// Each commit is one CAS from the locked word, which unlocks the cell
	// and leaves in place a value the heap stored into it meanwhile. The
	// commits here and in compareSwap are written out because a helper for
	// them would not inline.
	e.yield()
	e.h.CAS(a0, old0|lockBit, new0)
	e.yield()
	e.h.CAS(a1, old1|lockBit, new1)
	return true
}

// compareSwap is the compare-only DCAS: it compares the cell at c with cOld
// and, if the cell at s holds sOld, swaps s to sNew. It holds at most the
// lock on s, and never while it waits.
func (e *LockingEngine) compareSwap(c mem.Addr, cOld uint64, s mem.Addr, sOld, sNew uint64) bool {
	for {
		if !e.lock(s, sOld) {
			return false
		}
		e.yield()
		v := e.h.Load(c)
		if v == cOld {
			e.yield()
			e.h.CAS(s, sOld|lockBit, sNew)
			return true
		}
		e.unlock(s, sOld)
		if v&lockBit == 0 || e.Read(c) != cOld {
			return false
		}
	}
}
