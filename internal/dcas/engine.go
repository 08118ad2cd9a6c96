// Package dcas provides the double-compare-and-swap substrate the LFRC paper
// assumes.
//
// The paper relies on a hardware DCAS instruction (two independently chosen
// memory words compared and updated atomically, as in the Motorola
// 68020/68040 CAS2). No commodity hardware offers one today, and Go exposes
// only single-word atomics, so this package supplies two interchangeable
// engines over the simulated heap:
//
//   - LockingEngine simulates the hardware: a lock bit in every cell,
//     taken in address order, stands in for the atomic execution the
//     instruction would provide, and reads wait out a held lock. A DCAS
//     that writes one cell back unchanged, like the paper's LFRCLoad,
//     locks only the cell it swaps and just loads the other, linearizing
//     at that load. It is simple and fast, but its lock-freedom is a
//     property of the modeled hardware, not of the simulation.
//   - MCASEngine is a genuinely lock-free software DCAS built from
//     single-word CAS using the RDCSS and MCAS constructions of Harris,
//     Fraser & Pratt (DISC 2002). Each operation reuses its own padded
//     descriptor slot in place under a bumped version, which helpers
//     validate, so they can never be confused by that reuse. A full DCAS
//     puts its descriptor in both cells. A compare-only DCAS puts it only
//     in the cell it swaps, and is decided from one load of the compared
//     cell, its linearization point; finding a descriptor there decides a
//     retry instead, so deciding never helps another op. Slot order keeps
//     compare-only ops whose cells cross from retrying each other forever,
//     and the engine stays lock-free.
//
// All pointer and reference-count cells of LFRC-managed objects are accessed
// exclusively through an Engine, which is what lets the two implementations
// swap freely (ablation A1 in EXPERIMENTS.md).
//
// Both engines work on the concrete *mem.Heap, whose cell accessors inline
// into them, so an engine operation pays for its own protocol and nothing
// else. The schedule explorer (internal/explore) still needs a scheduling
// point at each of an engine's internal steps; it gets them from the
// WithStep construction hook, which each engine tests at every heap access,
// wait and descriptor step, in a branch that inlines into the site.
// Production engines leave the hook nil.
package dcas

import "lfrc/internal/mem"

// Engine provides atomic access to heap cells, including the two-word DCAS
// the LFRC algorithms are built on.
//
// Values stored through an Engine must fit in mem.ValueMask (top two bits
// clear); those bits are reserved for MCAS descriptor tags and the
// LockingEngine's lock bit.
type Engine interface {
	// Name identifies the engine in benchmark output.
	Name() string

	// Read atomically reads the cell at a, helping any in-flight
	// multi-word operation it encounters.
	Read(a mem.Addr) uint64

	// Write atomically replaces the value of the cell at a.
	Write(a mem.Addr, v uint64)

	// CAS atomically compares-and-swaps the cell at a.
	CAS(a mem.Addr, old, new uint64) bool

	// DCAS atomically compares the cells at a0 and a1 with old0 and old1
	// and, if both match, replaces them with new0 and new1. It returns
	// whether the replacement happened. If a0 == a1 the operation
	// degenerates to a single CAS and requires old0 == old1 and
	// new0 == new1.
	DCAS(a0, a1 mem.Addr, old0, old1, new0, new1 uint64) bool
}
