// Package reclaim turns "this object's reference count reached zero" into
// "this object's memory is reusable": the paper's destroy recursion
// (Figure 2, lines 13–15) with §7's incremental-destroy budget and the
// zombie stack that holds what the budget leaves over.
//
// The contract between the core and the Reclaimer:
//
//   - The core hands the Reclaimer every object whose reference count it
//     observed dropping to zero (Retire). Count-zero objects are already
//     unreachable under the LFRC invariants, so they need no grace period:
//     they are freed at once, and only the §7 budget defers any of them.
//   - Dead objects travel as chains threaded through their own link words
//     (the aux cell, see Push), never in Go slices: a Retire names one root
//     plus a chain of further roots, and ReleaseChildren pushes the children
//     it kills onto a chain. The hand-off therefore allocates nothing, the
//     way the free lists of the C LFRC implementations reuse a word of the
//     dead object itself.
//   - The Reclaimer eventually frees every retired object through the Env:
//     releasing the object's children first (which may surface more
//     count-zero objects — the Reclaimer owns those too) and then returning
//     the slot to the heap.
//   - Drain lets maintenance code finish deferred work on demand; Pending
//     reports the deferred backlog (exported as the zombie backlog).
//
// Deferral traffic goes through the flight recorder (zombie push/drain
// events, which the lifecycle timelines and the stuck-zombie auditor read)
// and the fault injector (the reclaim.push and reclaim.drain points).
package reclaim

import (
	"lfrc/internal/fault"
	"lfrc/internal/mem"
	"lfrc/internal/obs"
)

// Env is what the Reclaimer needs from the layer that owns the objects: how
// to release an object's children, how to return its slot to the heap, and
// one spare word per dead object to link chains and the zombie stack
// through. The LFRC core implements it; tests implement it with toy heaps.
//
// All methods must be safe for concurrent use. ReleaseChildren and
// FreeObject take proc, the id of the P the caller runs on (stripe.ID),
// which a Retire or Drain reads once and passes to every object it frees:
// the owner routes its counters and the heap free by it instead of looking
// the P up again per object.
type Env interface {
	// ReleaseChildren decrements the reference count of every pointer
	// field of p, clears the field, pushes each child whose count reached
	// zero onto chain (with Push), and returns the new head. It is
	// called exactly once per object, at free time: a budget-parked zombie
	// keeps its fields intact until its destruction resumes, the paper's
	// §7 discipline.
	ReleaseChildren(p, chain mem.Ref, proc int) mem.Ref

	// FreeObject returns p's slot to the heap. The Reclaimer counts every
	// call in Stats.Freed; the owner counts only the frees its heap
	// rejects (double frees caused by corrupted counts).
	FreeObject(p mem.Ref, proc int)

	// LinkLoad and LinkStore access the per-object link word (the aux
	// cell) that retire chains and the zombie stack thread dead objects
	// through. The word is dedicated to reclamation from the moment an
	// object is retired until it is freed.
	LinkLoad(p mem.Ref) uint64
	LinkStore(p mem.Ref, v uint64)
}

// linkMark tags a link word that threads a retired object onto a retire
// chain or the zombie stack. The heap's free lists reuse the word without
// it once the object is freed, and Alloc zeroes it, so a walk can tell a
// link it may follow from one that a second retirement of the same object
// (corrupted counts, experiment E1) has already consumed.
const linkMark uint64 = 1 << 32

// link is the link word that threads an object onto a chain ahead of next.
func link(next mem.Ref) uint64 { return uint64(next) | linkMark }

// linked reports whether link word w threads its object onto a chain or the
// zombie stack: the object is retired and not yet freed.
func linked(w uint64) bool { return w&linkMark != 0 }

// Push threads dead object p onto chain through its link word and returns
// the new head; ReleaseChildren and a Retire's chain of further roots are
// built with it. A p whose word is already linked is retired elsewhere —
// only corrupted counts (NaiveLoad) kill an object twice — and stays off
// this chain, which could otherwise loop through it.
func Push(env Env, chain, p mem.Ref) mem.Ref {
	if linked(env.LinkLoad(p)) {
		return chain
	}
	env.LinkStore(p, link(chain))
	return p
}

// Name is the Reclaimer's spec name, reported as Stats.Backend, the
// backend metric label and a bundle's reclaimer.
const Name = "lfrc"

// Stats is the Reclaimer's accounting snapshot. The JSON tags are part of
// the root Stats surface (Stats().Reclaim) and locked by the stats golden.
type Stats struct {
	// Backend is always Name.
	Backend string `json:"backend"`

	// Retired counts objects handed to Retire as roots (root plus each
	// object on more); Freed counts objects actually freed (FreeObject
	// calls), including cascaded descendants discovered while freeing.
	// Parked counts pushes onto the zombie stack; Pending is its current
	// backlog.
	Retired int64 `json:"retired"`
	Freed   int64 `json:"freed"`
	Parked  int64 `json:"parked"`
	Pending int64 `json:"pending"`

	// Drains counts explicit Drain calls (maintenance or degraded-mode).
	Drains int64 `json:"drains"`
}

// Option configures a Reclaimer.
type Option func(*config)

type config struct {
	budget int
	obs    *obs.Recorder
	fj     *fault.Injector
}

// WithBudget caps the objects freed per Retire at budget; the remainder
// parks on the zombie stack. 0 (the default) means unbounded.
func WithBudget(budget int) Option {
	return func(c *config) { c.budget = budget }
}

// WithObserver attaches the flight recorder: zombie-stack traffic is noted
// as zombie push/drain events for the lifecycle timelines and the
// stuck-zombie auditor. A nil recorder disables the tap.
func WithObserver(r *obs.Recorder) Option {
	return func(c *config) { c.obs = r }
}

// WithFault attaches the fault injector: the zombie stack's CASes consult
// the reclaim.push / reclaim.drain points. A nil injector disables
// injection.
func WithFault(in *fault.Injector) Option {
	return func(c *config) { c.fj = in }
}

// pop takes the head off chain, reading its link word before the walk
// releases or frees it, and returns the head and the rest. A head whose
// word is no longer linked was freed under the walk by a second retirement
// (only corrupted counts retire an object twice); its word now belongs to
// the heap, so the walk ends there rather than follow it.
func pop(env Env, chain mem.Ref) (head, rest mem.Ref) {
	if chain == 0 {
		return 0, 0
	}
	w := env.LinkLoad(chain)
	if !linked(w) {
		return 0, 0
	}
	return chain, mem.Ref(w & 0xFFFF_FFFF)
}

// roots counts the objects one Retire hands over: root plus the chain more.
func roots(env Env, more mem.Ref) int64 {
	n := int64(1)
	for p, rest := pop(env, more); p != 0; p, rest = pop(env, rest) {
		n++
	}
	return n
}
