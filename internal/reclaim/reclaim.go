// Package reclaim is the pluggable reclamation seam: the machinery that
// turns "this object's reference count reached zero" into "this object's
// memory is reusable", factored out of the LFRC core behind one interface.
//
// Meyer & Wolff (Decoupling Lock-Free Data Structures from Memory
// Reclamation) argue a lock-free structure and its reclamation scheme should
// be separable; Anderson, Blelloch & Wei (Turning Manual Concurrent Memory
// Reclamation into Automatic Reference Counting) show the two families are
// interconvertible through exactly such a seam. This package is that seam
// for the reproduction: the same structures, fault plans, and auditors run
// over multiple backends, so reclamation policies can be compared on
// identical workloads.
//
// The contract between the core and a backend:
//
//   - The core hands a Reclaimer every object whose reference count it
//     observed dropping to zero (Retire). Count-zero objects are already
//     unreachable under the LFRC invariants, so a backend is free to release
//     them immediately or to defer — the choice is policy, not safety.
//   - Dead objects travel as chains threaded through their own link words
//     (the aux cell, see Push), never in Go slices: a Retire names one root
//     plus a chain of further roots, and ReleaseChildren pushes the children
//     it kills onto a chain. The hand-off therefore allocates nothing, the
//     way the free lists of the C LFRC implementations reuse a word of the
//     dead object itself.
//   - The backend eventually frees every retired object through the Env:
//     releasing the object's children first (which may surface more
//     count-zero objects — the backend owns those too) and then returning
//     the slot to the heap.
//   - Drain lets maintenance code finish deferred work on demand; Pending
//     reports the deferred backlog (exported as the zombie backlog).
//
// Two backends ship: the paper-faithful LFRC zombie stack (§7 incremental
// destruction — eager frees up to a per-release budget, the remainder parked
// on a Treiber stack), and an epoch-based backend that defers every free
// into per-epoch limbo bins and releases a bin only after two epoch
// advances, the grace-period discipline of EBR. Both thread their deferral
// traffic through the flight recorder (zombie push/drain events, so
// lifecycle timelines and the stuck-zombie auditor work unchanged) and the
// fault injector (the reclaim.* points).
package reclaim

import (
	"fmt"

	"lfrc/internal/fault"
	"lfrc/internal/mem"
	"lfrc/internal/obs"
)

// Kind selects a reclamation backend.
type Kind int

// Backends.
const (
	// KindLFRC is the paper's scheme: objects are destroyed eagerly when
	// their count hits zero, except that a positive incremental-destroy
	// budget caps the work per release and parks the remainder on the
	// zombie stack (paper §7).
	KindLFRC Kind = iota + 1

	// KindEpoch defers every free into per-epoch limbo bins and releases
	// a bin only once it is two epoch advances old — the grace-period
	// batching of epoch-based reclamation. Under LFRC a count-zero object
	// needs no grace period, so the discipline here buys batching (and a
	// test bench for EBR-style backlogs), not safety.
	KindEpoch
)

// String implements fmt.Stringer with the stable spec names ("lfrc",
// "epoch") the root package's ParseReclaimer accepts.
func (k Kind) String() string {
	switch k {
	case KindLFRC:
		return "lfrc"
	case KindEpoch:
		return "epoch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Env is what a backend needs from the layer that owns the objects: how to
// release an object's children, how to return its slot to the heap, and one
// spare word per dead object to link deferral lists through. The LFRC core
// implements it; tests implement it with toy heaps.
//
// All methods must be safe for concurrent use.
type Env interface {
	// ReleaseChildren decrements the reference count of every pointer
	// field of p, clears the field, pushes each child whose count reached
	// zero onto chain (with Push), and returns the new head. It is
	// called exactly once per object, but backends differ on when: the
	// lfrc backend calls it at free time (a budget-parked zombie keeps its
	// fields intact until its destruction resumes, the paper's §7
	// discipline), while the epoch backend calls it at retire time so that
	// limbo holds only edge-free husks — an intact edge in limbo would
	// keep the child's count up for a whole grace period and, on
	// chain-shaped structures, transitively pin the entire chain.
	ReleaseChildren(p, chain mem.Ref) mem.Ref

	// FreeObject returns p's slot to the heap (counting frees and
	// rejected double-frees in the owner's accounting).
	FreeObject(p mem.Ref)

	// LinkLoad and LinkStore access the per-object link word (the aux
	// cell) that retire chains and the backends' deferral stacks thread
	// dead objects through. The word is dedicated to reclamation from the
	// moment an object is retired until it is freed.
	LinkLoad(p mem.Ref) uint64
	LinkStore(p mem.Ref, v uint64)
}

// linkMark tags a link word that threads a retired object onto a retire
// chain, the zombie stack or a limbo bin. The heap's free lists reuse the
// word without it once the object is freed, and Alloc zeroes it, so a walk
// can tell a link it may follow from one that a second retirement of the
// same object (corrupted counts, experiment E1) has already consumed.
const linkMark uint64 = 1 << 32

// link is the link word that threads an object onto a chain ahead of next.
func link(next mem.Ref) uint64 { return uint64(next) | linkMark }

// linked reports whether link word w threads its object onto a chain or a
// deferral stack: the object is retired and not yet freed.
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

// Reclaimer is the reclamation backend contract. Implementations must be
// safe for concurrent use: Retire is called from every releasing goroutine,
// and Drain may run concurrently with Retire (the degraded-mode drain path
// does exactly that).
type Reclaimer interface {
	// Name is the backend's stable spec name ("lfrc", "epoch").
	Name() string

	// Retire hands over root and the 0-terminated chain more (threaded
	// through the link words, as ReleaseChildren builds it) of further
	// objects whose reference count reached zero. The backend owns them
	// from this call on and must eventually free each one (and any
	// descendants that reach zero when it does) through the Env. A single
	// death passes more = 0 and writes no link word.
	Retire(root, more mem.Ref)

	// Drain performs up to max objects' worth of deferred reclamation
	// (0 = drain everything), returning the number of objects freed.
	Drain(max int) int

	// Pending reports the number of objects handed to Retire (or parked
	// during a bounded free pass) that have not been freed yet.
	Pending() int64

	// Stats snapshots the backend's accounting.
	Stats() Stats
}

// Stats is a backend accounting snapshot. The JSON tags are part of the
// root Stats surface (Stats().Reclaim) and locked by the stats golden.
type Stats struct {
	// Backend is the backend's spec name.
	Backend string `json:"backend"`

	// Retired counts objects handed to Retire as roots (root plus each
	// object on more); Freed counts objects the
	// backend actually freed, including cascaded descendants discovered
	// while freeing. Parked counts pushes onto deferred storage (the
	// zombie stack or a limbo bin); Pending is the current deferred
	// backlog.
	Retired int64 `json:"retired"`
	Freed   int64 `json:"freed"`
	Parked  int64 `json:"parked"`
	Pending int64 `json:"pending"`

	// Drains counts explicit Drain calls (maintenance or degraded-mode).
	Drains int64 `json:"drains"`

	// Epoch is the backend's reclamation epoch and EpochAdvances the
	// number of advances; both stay zero on the lfrc backend.
	Epoch         uint64 `json:"epoch"`
	EpochAdvances int64  `json:"epoch_advances"`
}

// Option configures a backend.
type Option func(*config)

type config struct {
	budget     int
	epochEvery int
	obs        *obs.Recorder
	fj         *fault.Injector
}

// WithBudget caps the objects freed per release (Retire on the lfrc
// backend; an automatic epoch-advance flush on the epoch backend) at budget;
// the remainder stays deferred. 0 (the default) means unbounded.
func WithBudget(budget int) Option {
	return func(c *config) { c.budget = budget }
}

// WithEpochEvery sets how many retirements the epoch backend batches before
// it advances its epoch and flushes the expired bin. Values below 1 select
// the default (DefaultEpochEvery). The lfrc backend ignores it.
func WithEpochEvery(n int) Option {
	return func(c *config) { c.epochEvery = n }
}

// WithObserver attaches the flight recorder: deferral traffic is noted as
// zombie push/drain events, so lifecycle timelines and the stuck-zombie
// auditor see both backends identically. A nil recorder disables the tap.
func WithObserver(r *obs.Recorder) Option {
	return func(c *config) { c.obs = r }
}

// WithFault attaches the fault injector: the deferral-list CASes consult
// the reclaim.push / reclaim.drain points and the epoch backend's advance
// CAS consults reclaim.epoch. A nil injector disables injection.
func WithFault(in *fault.Injector) Option {
	return func(c *config) { c.fj = in }
}

// New builds the backend of the given kind over env. An unknown kind falls
// back to KindLFRC, the paper-faithful default.
func New(kind Kind, env Env, opts ...Option) Reclaimer {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	switch kind {
	case KindEpoch:
		return newEpoch(env, cfg)
	default:
		return newLFRC(env, cfg)
	}
}

// freeDFS frees p, every object on chain and any descendant whose count
// drops to zero while doing so, depth-first: ReleaseChildren pushes the
// newly dead onto the chain, so the chain is the DFS stack and no Go memory
// is allocated. With a positive budget it frees at most budget objects and
// hands the rest to park; with budget 0 it frees everything. It returns the
// number of objects freed.
//
// This is the paper's LFRCDestroy recursion (Figure 2, lines 13–15) with
// the §7 budget cut-off. Only the lfrc backend uses it: there, a deferred
// object's children are released at free time, never at retire time. The
// epoch backend runs the same recursion inside Retire instead (edges must
// not survive into limbo — see epochReclaimer).
func freeDFS(env Env, p, chain mem.Ref, budget int, park func(mem.Ref)) int {
	freed := 0
	for p != 0 {
		if budget > 0 && freed >= budget {
			for p != 0 {
				q := p
				p, chain = pop(env, chain)
				park(q)
			}
			return freed
		}
		chain = env.ReleaseChildren(p, chain)
		env.FreeObject(p)
		freed++
		p, chain = pop(env, chain)
	}
	return freed
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
