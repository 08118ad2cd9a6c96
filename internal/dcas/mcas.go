package dcas

import (
	"runtime"
	"sync/atomic"

	"lfrc/internal/mem"
	"lfrc/internal/stripe"
)

// MCASEngine is a lock-free DCAS built from single-word CAS, following the
// RDCSS and MCAS constructions of Harris, Fraser & Pratt, "A Practical
// Multi-Word Compare-and-Swap Operation" (DISC 2002), specialized to two
// locations.
//
// Descriptors do not live in the heap. Each operation claims one slot of a
// fixed array of cache-line-padded records, each holding one MCAS and one
// RDCSS descriptor, and reuses them in place under a bumped version
// (Arbel-Raviv & Brown, "Reuse, don't Recycle"). A descriptor *reference* —
// the value temporarily stored in a heap cell — packs a tag, a slot index,
// and a 42-bit version:
//
//	bit 63        descriptor tag (never set by application values)
//	bit 62        1 = RDCSS descriptor, 0 = MCAS descriptor
//	bits 20..61   descriptor version at publication time
//	bits  0..19   slot index
//
// A descriptor's version is bumped when it is published (becoming odd) and
// again when it is retired (becoming even). Helpers snapshot a descriptor's
// fields, re-validate the version, and perform only CAS operations whose
// expected value embeds the version — so a helper that raced with completion
// and reuse can never corrupt anything: its CASes simply fail. An MCAS
// descriptor keeps its version in its status word (version<<2 | state), so
// a stale helper cannot decide a reused descriptor's status either.
//
// A DCAS that writes exactly one of its cells back unchanged (old == new,
// the shape of the paper's LFRCLoad, which compares the pointer cell and
// bumps the count) is compare-only on that cell. Its descriptor goes into
// the swapped cell alone, with one plain CAS and no RDCSS, and the op is
// decided from a single load of the compared cell: its expected value
// succeeds the op, any other value fails it, and a descriptor decides a
// fourth state, retry, after which the owner starts over. That deciding
// load is the linearization point: from the install to the decision the
// swapped cell holds the undecided descriptor, and every engine access to
// it settles the op first, so the cell logically held its old value then.
// Owner and helpers decide the same way, and a helper settles the op
// without a slot and without helping anything from inside it, so a full
// DCAS that holds the compared cell and waits on the swapped one cannot
// cycle with it.
//
// Every retry is paid for by another op's progress: the owner's next Read
// of the compared cell helps whatever op it found there. The exception is
// compare-only ops whose cells cross (one compares X and swaps Y, another
// compares Y and swaps X, or a longer cycle), which could make each other
// retry forever. Slot order breaks such cycles: a decider that finds a
// compare-only descriptor from a higher slot in its compared cell forces
// that op to retry, unless someone decided it already, and decides on the
// value the cell logically held once it was decided.
type MCASEngine struct {
	h     *mem.Heap
	step  func(wait bool) // the WithStep hook; nil outside the explorer
	slots []descSlot
}

var _ Engine = (*MCASEngine)(nil)

const (
	descBit  uint64 = 1 << 63
	rdcssBit uint64 = 1 << 62

	slotBits = 20
	slotMask = 1<<slotBits - 1
	verBits  = 42
	verMask  = 1<<verBits - 1

	// noSlot is the own-slot argument of a helper that holds no slot.
	noSlot = ^uint32(0)

	// MCAS status states (low two bits of the packed status word). Only a
	// compare-only op is ever decided stRetry.
	stUndecided = 0
	stSucceeded = 1
	stFailed    = 2
	stRetry     = 3
)

// isDescriptor reports whether a cell value is a descriptor reference.
func isDescriptor(v uint64) bool { return v&descBit != 0 }

// isRDCSSRef reports whether a descriptor reference names an RDCSS slot.
func isRDCSSRef(v uint64) bool { return v&rdcssBit != 0 }

// packRef builds a descriptor reference.
func packRef(rdcss bool, slot uint32, ver uint64) uint64 {
	r := descBit | uint64(slot)&slotMask | (ver&verMask)<<slotBits
	if rdcss {
		r |= rdcssBit
	}
	return r
}

// unpackRef splits a descriptor reference into slot index and version.
func unpackRef(ref uint64) (slot uint32, ver uint64) {
	return uint32(ref & slotMask), (ref >> slotBits) & verMask
}

// mcasOp is a full DCAS's two (addr, old, new) triples, in address order.
type mcasOp struct {
	addrs      [2]mem.Addr
	olds, news [2]uint64
}

// cmpOp is a compare-only DCAS: it swaps cell s from sOld to sNew if cell c
// holds cOld.
type cmpOp struct {
	s, c             mem.Addr
	sOld, sNew, cOld uint64
}

// mcasDesc publishes an mcasOp plus a version-packed status word. A
// compare-only op is published with cmp set, its swapped cell as location 0
// and its compared cell as location 1.
type mcasDesc struct {
	status atomic.Uint64 // ver<<2 | state; ver is odd while active
	cmp    atomic.Uint64 // 1 for a compare-only op, 0 for a full DCAS
	addrs  [2]atomic.Uint64
	olds   [2]atomic.Uint64
	news   [2]atomic.Uint64
}

// rdcssDesc is one conditional install: write mref into a2 if *a2 == o2 and
// the MCAS op named by mref is still undecided.
type rdcssDesc struct {
	ver  atomic.Uint64 // odd while active
	mref atomic.Uint64 // the MCAS descriptor reference being installed
	a2   atomic.Uint64
	o2   atomic.Uint64
}

// descSlot is one owner's descriptors, padded to two cache lines so that
// owners on different cores never share a line.
type descSlot struct {
	busy  atomic.Uint64 // 1 while claimed
	mcas  mcasDesc
	rdcss rdcssDesc
	_     [24]byte
}

// Option configures an engine.
type Option func(*config)

type config struct {
	poolSize int
	step     func(wait bool)
}

func newConfig(opts []Option) config {
	cfg := config{poolSize: 4096}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithPoolSize sets the number of descriptor slots. A goroutine holds a slot
// only while it is inside the engine — for one DCAS, or for one
// helping install made from Read, Write or CAS — so the count bounds the
// goroutines inside the engine at once, not the operations; the default of
// 4096 is far beyond any realistic goroutine count. A goroutine that finds
// every slot busy waits for a release. That is the engine's only wait, a
// documented deviation from pure lock-freedom that sizing the count to the
// goroutine count removes.
func WithPoolSize(n int) Option {
	return func(c *config) { c.poolSize = n }
}

// WithStep installs a scheduling hook for the schedule explorer (see
// internal/explore): the engine calls step(false) before each of its heap
// accesses and internal steps, and step(true) where it waits for another
// goroutine — on a locked cell in the LockingEngine, for a free descriptor
// slot in the MCASEngine. Each site tests the hook through a method that
// inlines, so the nil hook of production engines costs one predictable
// branch and no call.
func WithStep(step func(wait bool)) Option {
	return func(c *config) { c.step = step }
}

// NewMCAS returns a lock-free MCAS engine over h. With WithStep, the engine
// calls the hook before each heap access, descriptor-field access and slot
// claim or release.
func NewMCAS(h *mem.Heap, opts ...Option) *MCASEngine {
	cfg := newConfig(opts)
	return &MCASEngine{h: h, step: cfg.step, slots: make([]descSlot, min(max(cfg.poolSize, 2), slotMask))}
}

// Name implements Engine.
func (e *MCASEngine) Name() string { return "mcas" }

// Read implements Engine.
func (e *MCASEngine) Read(a mem.Addr) uint64 {
	for {
		e.yield()
		v := e.h.Load(a)
		if !isDescriptor(v) {
			return v
		}
		e.help(v, noSlot)
	}
}

// Write implements Engine.
func (e *MCASEngine) Write(a mem.Addr, v uint64) {
	for !e.CAS(a, e.Read(a), v) {
	}
}

// CAS implements Engine.
func (e *MCASEngine) CAS(a mem.Addr, old, new uint64) bool {
	for {
		e.yield()
		if e.h.CAS(a, old, new) {
			return true
		}
		e.yield()
		cur := e.h.Load(a)
		if isDescriptor(cur) {
			e.help(cur, noSlot)
			continue
		}
		if cur != old {
			return false
		}
		// Transient race between our CAS and Load; try again.
	}
}

// DCAS implements Engine.
func (e *MCASEngine) DCAS(a0, a1 mem.Addr, old0, old1, new0, new1 uint64) bool {
	if a0 == a1 {
		if old0 != old1 || new0 != new1 {
			return false
		}
		return e.CAS(a0, old0, new0)
	}
	if old0 == new0 && old1 != new1 {
		return e.compareSwap(&cmpOp{c: a0, cOld: old0, s: a1, sOld: old1, sNew: new1})
	}
	if old1 == new1 && old0 != new0 {
		return e.compareSwap(&cmpOp{c: a1, cOld: old1, s: a0, sOld: old0, sNew: new0})
	}
	if a0 > a1 {
		a0, a1, old0, old1, new0, new1 = a1, a0, old1, old0, new1, new0
	}
	return e.runMCAS(&mcasOp{addrs: [2]mem.Addr{a0, a1},
		olds: [2]uint64{old0, old1}, news: [2]uint64{new0, new1}})
}

// yield hands control to the WithStep hook, if any, before a heap access or
// an internal step. It inlines, so without a hook it costs one branch and no
// call.
func (e *MCASEngine) yield() {
	if e.step != nil {
		e.step(false)
	}
}

// ld and st access a descriptor field another goroutine may access too.
func (e *MCASEngine) ld(p *atomic.Uint64) uint64    { e.yield(); return p.Load() }
func (e *MCASEngine) st(p *atomic.Uint64, v uint64) { e.yield(); p.Store(v) }

// claim takes a free slot, probing linearly from the caller's P id, so
// goroutines running at once start on different slots. Under a WithStep
// hook the probe starts at slot 0 instead: the explorer's goroutines run on
// whatever P the Go scheduler gives them, and a start that followed it would
// make the explored schedules differ from one run to the next.
func (e *MCASEngine) claim() uint32 {
	n := len(e.slots)
	i := 0
	if e.step == nil {
		i = stripe.Hint(n)
	}
	for {
		for range n {
			e.yield()
			if b := &e.slots[i].busy; b.Load() == 0 && b.CompareAndSwap(0, 1) {
				return uint32(i)
			}
			if i++; i == n {
				i = 0
			}
		}
		// Every slot is busy: wait for a release. See WithPoolSize.
		if e.step != nil {
			e.step(true)
		}
		runtime.Gosched()
	}
}

// release frees a claimed slot.
func (e *MCASEngine) release(s uint32) {
	e.yield()
	e.slots[s].busy.Store(0)
}

// runMCAS publishes op in a claimed slot's MCAS descriptor, drives it to
// completion, and retires it.
func (e *MCASEngine) runMCAS(op *mcasOp) bool {
	own := e.claim()
	d := &e.slots[own].mcas
	ver := d.status.Load()>>2 + 1 // becomes odd
	e.st(&d.cmp, 0)
	for i := range 2 {
		e.st(&d.addrs[i], uint64(op.addrs[i]))
		e.st(&d.olds[i], op.olds[i])
		e.st(&d.news[i], op.news[i])
	}
	e.st(&d.status, ver<<2|stUndecided) // publish

	ref := packRef(false, own, ver)
	ok := e.installFirst(ref, op.addrs[0], op.olds[0], own) && e.helpMCAS(ref, op, 1, own)

	e.st(&d.status, (ver+1)<<2) // retire (even)
	e.release(own)
	return ok
}

// compareSwap runs a compare-only DCAS. Each attempt reads the compared
// cell holding no slot, helping any op it finds there, then publishes op in
// a claimed slot, installs the descriptor into the swapped cell and settles
// the op. An attempt decided stRetry releases its slot and starts over.
func (e *MCASEngine) compareSwap(op *cmpOp) bool {
	for {
		if e.Read(op.c) != op.cOld {
			return false
		}
		own := e.claim()
		ref := e.publishCmp(own, op)
		st := uint64(stFailed)
		if e.installFirst(ref, op.s, op.sOld, own) {
			st = e.settleCmp(ref, op)
		}

		_, ver := unpackRef(ref)
		e.st(&e.slots[own].mcas.status, (ver+1)<<2) // retire (even)
		e.release(own)
		if st != stRetry {
			return st == stSucceeded
		}
	}
}

// publishCmp publishes the compare-only op in slot own's MCAS descriptor
// and returns the descriptor reference.
func (e *MCASEngine) publishCmp(own uint32, op *cmpOp) uint64 {
	d := &e.slots[own].mcas
	ver := d.status.Load()>>2 + 1 // becomes odd
	e.st(&d.cmp, 1)
	e.st(&d.addrs[0], uint64(op.s))
	e.st(&d.olds[0], op.sOld)
	e.st(&d.news[0], op.sNew)
	e.st(&d.addrs[1], uint64(op.c))
	e.st(&d.olds[1], op.cOld)
	e.st(&d.status, ver<<2|stUndecided) // publish
	return packRef(false, own, ver)
}

// settleCmp decides the compare-only op named by ref, whose descriptor ref
// is in its swapped cell, from one load of its compared cell, and releases
// the swapped cell. It returns the decided state, or stUndecided if the
// descriptor has been reused, so the op is long over.
func (e *MCASEngine) settleCmp(ref uint64, op *cmpOp) uint64 {
	e.yield()
	v := e.h.Load(op.c)
	if isDescriptor(v) {
		v = e.preempt(v, ref)
	}
	state := uint64(stRetry)
	if v == op.cOld {
		state = stSucceeded
	} else if !isDescriptor(v) {
		state = stFailed
	}
	st, _ := e.decideCmp(ref, op, state)
	return st
}

// decideCmp decides the compare-only op named by ref as state, unless it is
// decided already, and releases its swapped cell: to sNew if the op
// succeeded, back to sOld otherwise. It returns the op's decided state; ok
// is false if the descriptor has been reused.
func (e *MCASEngine) decideCmp(ref uint64, op *cmpOp, state uint64) (uint64, bool) {
	slot, ver := unpackRef(ref)
	e.yield()
	st := state
	if !e.slots[slot].mcas.status.CompareAndSwap(ver<<2|stUndecided, ver<<2|state) {
		var ok bool
		if st, ok = e.statusOf(ref); !ok {
			return 0, false
		}
	}
	v := op.sOld
	if st == stSucceeded {
		v = op.sNew
	}
	e.yield()
	e.h.CAS(op.s, ref, v)
	return st, true
}

// preempt handles the descriptor reference v found in the compared cell of
// the compare-only op named by ref. If v names a compare-only op from a
// higher slot, preempt decides that op stRetry unless it is decided
// already, releases the cell, and returns the value the cell held once the
// op was decided; the caller decides its own op on that value, which
// breaks cycles of compare-only ops that cross. Otherwise, or if v's
// descriptor has been reused meanwhile, it returns v.
func (e *MCASEngine) preempt(v, ref uint64) uint64 {
	if isRDCSSRef(v) || v&slotMask <= ref&slotMask {
		return v
	}
	d := &e.slots[v&slotMask].mcas
	if e.ld(&d.cmp) == 0 {
		return v
	}
	op := e.snapshotCmp(d)
	if _, ok := e.statusOf(v); !ok {
		return v
	}
	st, ok := e.decideCmp(v, &op, stRetry)
	if !ok {
		return v
	}
	if st == stSucceeded {
		return op.sNew
	}
	return op.sOld
}

// snapshotCmp reads a compare-only op's fields from its descriptor. The
// caller validates the version afterwards.
func (e *MCASEngine) snapshotCmp(d *mcasDesc) cmpOp {
	return cmpOp{
		s:    mem.Addr(e.ld(&d.addrs[0])),
		sOld: e.ld(&d.olds[0]),
		sNew: e.ld(&d.news[0]),
		c:    mem.Addr(e.ld(&d.addrs[1])),
		cOld: e.ld(&d.olds[1]),
	}
}

// installFirst places ref into location a, which holds old, with a plain
// CAS: the lowest location of a full op, or the swapped cell of a
// compare-only one. The RDCSS guard is unnecessary there: until ref is in a
// cell no other goroutine can name it, so the op cannot have been decided.
// It returns false if the location holds some other value; the op then
// fails without anyone having seen it.
func (e *MCASEngine) installFirst(ref uint64, a mem.Addr, old uint64, own uint32) bool {
	for {
		e.yield()
		if e.h.CAS(a, old, ref) {
			return true
		}
		e.yield()
		v := e.h.Load(a)
		if isDescriptor(v) {
			e.help(v, own)
		} else if v != old {
			return false
		}
	}
}

// statusOf reads the packed status of the MCAS op named by mref. ok is
// false if the descriptor has been reused (the op finished long ago).
func (e *MCASEngine) statusOf(mref uint64) (state uint64, ok bool) {
	slot, ver := unpackRef(mref)
	st := e.ld(&e.slots[slot].mcas.status)
	if (st>>2)&verMask != ver {
		return 0, false
	}
	return st & 3, true
}

// help advances whatever operation published the descriptor reference v. It
// is idempotent and may be called by any number of helpers concurrently.
// own is the slot whose RDCSS descriptor the caller installs with, or noSlot.
func (e *MCASEngine) help(v uint64, own uint32) {
	if isRDCSSRef(v) {
		e.completeRDCSS(v)
		return
	}
	// Snapshot the op, then validate the version: a retired op's snapshot
	// is garbage, but then the caller's cell no longer holds v either.
	d := &e.slots[v&slotMask].mcas
	if e.ld(&d.cmp) != 0 {
		op := e.snapshotCmp(d)
		if _, ok := e.statusOf(v); ok {
			e.settleCmp(v, &op)
		}
		return
	}
	var op mcasOp
	for i := range 2 {
		op.addrs[i] = mem.Addr(e.ld(&d.addrs[i]))
		op.olds[i] = e.ld(&d.olds[i])
		op.news[i] = e.ld(&d.news[i])
	}
	if _, ok := e.statusOf(v); ok {
		e.helpMCAS(v, &op, 0, own)
	}
}

// helpMCAS runs phases 1 and 2 of Harris et al. for the op named by ref,
// whose triples are op, installing ref from location from onwards, and
// reports whether the op succeeded.
func (e *MCASEngine) helpMCAS(ref uint64, op *mcasOp, from int, own uint32) bool {
	// Phase 1: install ref into every location, gated on the op still
	// being undecided.
	desired := uint64(stSucceeded)
phase1:
	for i := from; i < 2; i++ {
		for {
			st, ok := e.statusOf(ref)
			if !ok {
				return false // reused: the op is over; its owner knows the outcome
			}
			if st != stUndecided {
				desired = st
				break phase1
			}
			v := e.rdcssInstall(ref, op.addrs[i], op.olds[i], own)
			if v == ref {
				break // installed (by us or a helper)
			}
			if isDescriptor(v) && !isRDCSSRef(v) {
				e.help(v, own) // another MCAS holds the cell
				continue
			}
			if v != op.olds[i] {
				desired = stFailed
				break phase1
			}
			// v == olds[i]: the status was decided while our install
			// was in flight and the cell was restored; re-check it.
		}
	}

	// Decide. The CAS embeds the version, so deciding a reused slot is
	// impossible.
	slot, ver := unpackRef(ref)
	e.yield()
	e.slots[slot].mcas.status.CompareAndSwap(ver<<2|stUndecided, ver<<2|desired)
	st, ok := e.statusOf(ref)
	if !ok {
		return false
	}

	// Phase 2: release the cells, writing news on success and restoring
	// olds on failure.
	for i := range 2 {
		v := op.olds[i]
		if st == stSucceeded {
			v = op.news[i]
		}
		e.yield()
		e.h.CAS(op.addrs[i], ref, v)
	}
	return st == stSucceeded
}

// rdcssInstall tries to place mref into cell a2 on condition that *a2 == o2
// and the MCAS op is still undecided (RDCSS with the op's status word as the
// control location). It returns mref if the descriptor was installed, or the
// conflicting cell value otherwise; a return of o2 means the status was
// decided concurrently and the caller must re-check it.
//
// It installs with own's RDCSS descriptor: a goroutine runs at most one
// install at a time, so helping from inside an op reuses the op's slot. A
// helper holding no slot claims one for the install.
func (e *MCASEngine) rdcssInstall(mref uint64, a2 mem.Addr, o2 uint64, own uint32) uint64 {
	slot := own
	if own == noSlot {
		slot = e.claim()
		defer e.release(slot)
	}
	d := &e.slots[slot].rdcss
	ver := d.ver.Load() + 1
	e.st(&d.mref, mref)
	e.st(&d.a2, uint64(a2))
	e.st(&d.o2, o2)
	e.st(&d.ver, ver)         // publish
	defer e.st(&d.ver, ver+1) // retire

	ref := packRef(true, slot, ver)
	for {
		e.yield()
		if e.h.CAS(a2, o2, ref) {
			return e.resolveRDCSS(ref, mref, a2, o2)
		}
		e.yield()
		v := e.h.Load(a2)
		if isDescriptor(v) && isRDCSSRef(v) {
			e.completeRDCSS(v)
		} else if v != o2 {
			return v // plain mismatch or an MCAS descriptor
		}
		// Otherwise a transient race; retry the install.
	}
}

// completeRDCSS finishes an RDCSS whose descriptor reference was found in a
// cell.
func (e *MCASEngine) completeRDCSS(ref uint64) {
	slot, ver := unpackRef(ref)
	d := &e.slots[slot].rdcss
	mref := e.ld(&d.mref)
	a2 := mem.Addr(e.ld(&d.a2))
	o2 := e.ld(&d.o2)
	if e.ld(&d.ver) == ver { // else retired; the cell has been cleaned already
		e.resolveRDCSS(ref, mref, a2, o2)
	}
}

// resolveRDCSS replaces the RDCSS reference ref in cell a2 with mref if the
// MCAS op mref names is still undecided, and restores o2 otherwise. It
// returns the value it chose; another resolver may have written it first.
func (e *MCASEngine) resolveRDCSS(ref, mref uint64, a2 mem.Addr, o2 uint64) uint64 {
	st, ok := e.statusOf(mref)
	e.yield()
	if ok && st == stUndecided {
		e.h.CAS(a2, ref, mref)
		return mref
	}
	e.h.CAS(a2, ref, o2)
	return o2
}
