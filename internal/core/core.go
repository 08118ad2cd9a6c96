// Package core implements LFRC — the lock-free reference counting
// operations of Detlefs, Martin, Moir & Steele (PODC 2001), Figure 2.
//
// Each heap object carries a reference count with two guarantees that are
// deliberately weaker than exactness (paper §1):
//
//  1. whenever the number of pointers to an object is non-zero, so is its
//     reference count (no premature free), and
//  2. when the number of pointers reaches zero the count eventually reaches
//     zero too (no leak, for acyclic garbage).
//
// Counts may therefore run transiently high: an operation conservatively
// increments the target's count *before* creating a pointer to it and
// compensates with a decrement if the pointer is never created. The one
// place this is impossible with plain CAS is LFRCLoad: between reading a
// pointer and incrementing the count of its referent, the referent could be
// freed and recycled, so the increment would corrupt unrelated memory. LFRC
// closes that window with DCAS, incrementing the count atomically with a
// check that the pointer still exists (paper §5). NaiveLoad preserves the
// broken CAS-only protocol for experiment E1.
//
// What happens *after* a count reaches zero lives in internal/reclaim:
// count-zero objects are handed to its Reclaimer (the paper's destroy
// recursion with the §7 zombie stack), and the RC implements reclaim.Env so
// the Reclaimer can release children and return slots without knowing the
// LFRC protocol.
//
// Pointer cells managed by this package must be accessed only through these
// operations (the paper's "LFRC compliance" criterion, §2.1).
package core

import (
	"runtime"
	"sync/atomic"

	"lfrc/internal/contend"
	"lfrc/internal/dcas"
	"lfrc/internal/fault"
	"lfrc/internal/mem"
	"lfrc/internal/obs"
	"lfrc/internal/reclaim"
	"lfrc/internal/stripe"
)

// RC provides the LFRC operations over one heap and one DCAS engine.
type RC struct {
	h *mem.Heap
	e dcas.Engine

	// strat is the reference-count strategy (see strategy.go): the paper's
	// figure2 single-count protocol by default, or the weighted split
	// external/internal protocol. stratKind and the split weights are the
	// construction-time knobs it is built from.
	strat       Strategy
	stratKind   StrategyKind
	splitLink   int64
	splitRefill int64

	// destroyBudget is the incremental-destroy budget handed to rec (the
	// paper's §7 "incremental collection of large structures").
	destroyBudget int

	// rec is the Reclaimer: every object whose count this RC observes
	// dropping to zero is retired through it, and it frees them back
	// through the reclaim.Env methods below.
	rec *reclaim.Reclaimer

	// LoadHook and NaiveHook, when non-nil, run inside Load and
	// NaiveLoad respectively, between reading the pointer and updating
	// the referent's count. They exist so tests and experiments can open
	// the race window deterministically (see experiment E1); they must be
	// set before the RC is shared between goroutines.
	LoadHook  func(v mem.Ref)
	NaiveHook func(v mem.Ref)

	// stats is striped across cache-line-padded tally blocks so hot
	// operations on different goroutines don't contend on one line; each
	// operation adds one to its outcome's tally (see tally), and Stats sums
	// the stripes and derives the per-kind counters.
	stats []opStripe

	// obs is the optional flight recorder. A nil recorder is fully
	// disabled: every hot-path call on it is a single nil check.
	obs *obs.Recorder

	// ct is the optional contention observatory. A nil table is fully
	// disabled; when installed, every retry loop reports its failed
	// attempts (attributed to the comparand that moved) and retry chains.
	ct *contend.Table

	// fj is the optional fault injector. A nil injector is fully disabled;
	// when installed, every CAS/DCAS attempt in the LFRC operations and the
	// reclamation machinery consults it and treats a firing as a genuine
	// failure — taking exactly the retry or compensation path a lost race
	// takes. Injected failures are not reported to the contention
	// observatory: no comparand actually moved.
	fj *fault.Injector
}

// Option configures an RC.
type Option func(*RC)

// WithIncrementalDestroy caps reclamation work per release at budget
// objects; excess dead objects stay parked on the zombie stack until
// DrainZombies reclaims them. This implements the
// paper's §7 suggestion for avoiding long pauses when the last pointer to a
// large structure is dropped. A budget of 0 (the default) reclaims eagerly.
func WithIncrementalDestroy(budget int) Option {
	return func(c *RC) { c.destroyBudget = budget }
}

// WithStrategyKind selects the reference-count strategy (see strategy.go).
// The default is StrategyFigure2, the paper-faithful single-count protocol.
func WithStrategyKind(k StrategyKind) Option {
	return func(c *RC) { c.stratKind = k }
}

// WithSplitWeights overrides the split strategy's link stash size and refill
// amount (both default to splitDefaultWeight). It only takes effect when
// StrategySplit is selected; tests use tiny weights to force the refill and
// merge boundaries that are vanishingly rare at the default size.
func WithSplitWeights(link, refill int64) Option {
	return func(c *RC) { c.splitLink, c.splitRefill = link, refill }
}

// WithObserver attaches a flight recorder: LFRC operations record sampled
// events (kind, ref, cell, outcome, retry count, latency) into its lock-free
// per-stripe rings. A nil recorder leaves observation disabled.
func WithObserver(r *obs.Recorder) Option {
	return func(c *RC) { c.obs = r }
}

// WithContention attaches a contention observatory: the DCAS/CAS retry
// loops of every LFRC operation report failed attempts per cell (split
// across the two comparands by re-reading them — see dcas.Attribute) and
// retry-chain lengths per completed contended operation. Uncontended
// operations (no retry) record nothing, so the hot path pays one nil/zero
// check. A nil table leaves observation disabled.
func WithContention(t *contend.Table) Option {
	return func(c *RC) { c.ct = t }
}

// WithFault attaches a fault injector: the DCAS/CAS attempts of every LFRC
// operation, add_to_rc, and the zombie stack's park/drain loops
// consult it and treat a firing as a failed attempt. A nil injector leaves
// injection disabled.
func WithFault(in *fault.Injector) Option {
	return func(c *RC) { c.fj = in }
}

// New creates an RC over the given heap and engine. The Reclaimer is built
// last, over the fully configured RC, which implements its Env.
func New(h *mem.Heap, e dcas.Engine, opts ...Option) *RC {
	c := &RC{
		h:     h,
		e:     e,
		stats: make([]opStripe, stripe.Clamp(0, runtime.GOMAXPROCS(0))),
	}
	for _, o := range opts {
		o(c)
	}
	c.strat = strategyFor(c.stratKind, c.splitLink, c.splitRefill)
	c.rec = reclaim.New(c,
		reclaim.WithBudget(c.destroyBudget),
		reclaim.WithObserver(c.obs),
		reclaim.WithFault(c.fj),
	)
	return c
}

// st routes the calling goroutine to the counter stripe of the P it runs on.
func (c *RC) st() *opStripe { return &c.stats[stripe.Hint(len(c.stats))] }

// count adds one to tally k on the caller's stripe: the one P lookup and the
// one counter add an LFRC operation makes.
func (c *RC) count(k tally) { c.st().n[k].Add(1) }

// Observer returns the attached flight recorder, which is nil (a valid,
// disabled recorder) unless WithObserver was used. Structure packages built
// on this RC record their own op-level events through it.
func (c *RC) Observer() *obs.Recorder { return c.obs }

// Contention returns the attached contention observatory, which is nil (a
// valid, disabled table) unless WithContention was used. Structure packages
// built on this RC attribute their own retry loops through it.
func (c *RC) Contention() *contend.Table { return c.ct }

// Fault returns the attached fault injector, which is nil (a valid, disabled
// injector) unless WithFault was used. Structure packages built on this RC
// consult it in their own retry loops.
func (c *RC) Fault() *fault.Injector { return c.fj }

// Heap returns the underlying heap (for address computation and stats).
func (c *RC) Heap() *mem.Heap { return c.h }

// Engine returns the underlying DCAS engine.
func (c *RC) Engine() dcas.Engine { return c.e }

// Reclaimer returns the RC's Reclaimer.
func (c *RC) Reclaimer() *reclaim.Reclaimer { return c.rec }

// StrategyName returns the active strategy's name ("figure2" or "split").
func (c *RC) StrategyName() string { return c.strat.Name() }

// DecodeLink decodes a raw pointer-cell word into the referent it links to
// and the reference-count weight the link carries (0, 0 for null). Strictly
// read-only observers (census, audits, the tracing collector) use it to
// understand cells without assuming the figure2 bare-ref encoding.
func (c *RC) DecodeLink(u uint64) (mem.Ref, int64) {
	return c.strat.Ref(u), c.strat.Weight(u)
}

// NewObject allocates an object of type t with reference count 1 — the
// reference returned to the caller, which the caller must eventually either
// store somewhere with StoreAlloc or release with Destroy.
func (c *RC) NewObject(t mem.TypeID) (mem.Ref, error) {
	p := stripe.ID()
	r, err := c.h.AllocOn(t, p)
	if err != nil {
		return 0, err
	}
	c.stats[stripe.Of(p, len(c.stats))].n[tAlloc].Add(1)
	return r, nil
}

// Load implements LFRCLoad: it loads the pointer at shared cell a into
// *dest, securing a counted reference to the referent per the active
// strategy — the paper's Figure-2 DCAS (lines 1–12) under figure2, a
// weight-stash borrow under split — and then releases the reference
// previously held in *dest. The retry loop itself lives with the strategy
// (see strategy.go). A Load that releases a live dest is a list hop, the
// hot path of every traversal, so it releases the old referent itself
// rather than through the variadic destroy, and counts the load and the
// release in one add.
func (c *RC) Load(a mem.Addr, dest *mem.Ref) {
	t0 := c.obs.Sample()
	olddest := *dest
	v, old, delta, retries, refilled := c.strat.Load(c, a)
	*dest = v
	c.recordT(t0, obs.KindLoad, v, a, true, retries, old, delta)
	k := tLoad
	if refilled {
		k = tLoadRefill
	}
	if olddest != 0 {
		c.releaseRef(olddest)
		k++
	}
	c.count(k)
}

// NaiveLoad is the CAS-only load the paper argues against in §5 (the
// approach of Valois [19] without type-stable memory): it increments the
// referent's count in a separate step from reading the pointer. Between the
// two steps the object may be freed and recycled, so the increment can
// corrupt freed or reallocated memory. It exists solely for experiment E1;
// never use it in real code.
func (c *RC) NaiveLoad(a mem.Addr, dest *mem.Ref) {
	t0 := c.obs.Sample()
	var retries uint32
	var oldrc uint64
	olddest := *dest
	for {
		v := c.strat.Ref(c.e.Read(a))
		if v == 0 {
			*dest = 0
			break
		}
		if c.NaiveHook != nil {
			c.NaiveHook(v)
		}
		oldrc = c.addToRC(obs.KindNaiveLoad, v, 1) // unsafe: v may already be freed
		if c.strat.Ref(c.e.Read(a)) == v {
			*dest = v
			break
		}
		c.addToRC(obs.KindNaiveLoad, v, -1)
		retries++
		c.count(tLoadRetry)
		c.ct.Attempt(obs.KindNaiveLoad, uint32(a), contend.RolePointer, 0, contend.RoleUnknown, true, false)
	}
	if retries > 0 {
		c.ct.OpDone(obs.KindNaiveLoad, uint32(a), contend.RolePointer, 0, contend.RoleUnknown, retries)
	}
	c.recordT(t0, obs.KindNaiveLoad, *dest, a, true, retries, oldrc, 1)
	k := tLoad
	if olddest != 0 {
		c.releaseRef(olddest)
		k = tLoadHop
	}
	c.count(k)
}

// Store implements LFRCStore (Figure 2, lines 21–28): it stores pointer
// value v into shared cell a, crediting v's count with a full link's worth
// first and releasing the displaced link afterwards.
func (c *RC) Store(a mem.Addr, v mem.Ref) {
	t0 := c.obs.Sample()
	var oldrc uint64
	lc := c.strat.LinkCredit()
	if v != 0 {
		oldrc = c.addToRC(obs.KindStore, v, lc)
	}
	nw := c.strat.Pack(v)
	var retries uint32
	for {
		u := c.e.Read(a)
		if c.fj.Inject(fault.CoreStore) {
			retries++
			continue
		}
		if c.e.CAS(a, u, nw) {
			if retries > 0 {
				c.ct.OpDone(obs.KindStore, uint32(a), contend.RolePointer, 0, contend.RoleUnknown, retries)
			}
			c.recordT(t0, obs.KindStore, v, a, true, retries, oldrc, lc)
			c.count(tStore + c.releaseWord(u))
			return
		}
		retries++
		if c.ct != nil {
			c.ct.Attempt(obs.KindStore, uint32(a), c.strat.FailRole(c, a, u), 0, contend.RoleUnknown, true, false)
		}
	}
}

// StoreAlloc is LFRCStoreAlloc (paper §4, Figure 1 caption): like Store but
// transferring the reference that NewObject returned directly into the cell
// (under split, the strategy's AllocCredit tops the transferred weight-1
// reference up to a full link stash). After StoreAlloc the caller's local
// copy of v is dead weight: do not Destroy it and do not use it as a counted
// reference.
func (c *RC) StoreAlloc(a mem.Addr, v mem.Ref) {
	t0 := c.obs.Sample()
	if ac := c.strat.AllocCredit(); ac > 0 && v != 0 {
		c.addToRC(obs.KindStore, v, ac)
	}
	nw := c.strat.Pack(v)
	var retries uint32
	for {
		u := c.e.Read(a)
		if c.fj.Inject(fault.CoreStoreAlloc) {
			retries++
			continue
		}
		if c.e.CAS(a, u, nw) {
			if retries > 0 {
				c.ct.OpDone(obs.KindStore, uint32(a), contend.RolePointer, 0, contend.RoleUnknown, retries)
			}
			c.obs.Record(t0, obs.KindStore, uint32(v), uint32(a), true, retries)
			c.count(tStore + c.releaseWord(u))
			return
		}
		retries++
		if c.ct != nil {
			c.ct.Attempt(obs.KindStore, uint32(a), c.strat.FailRole(c, a, u), 0, contend.RoleUnknown, true, false)
		}
	}
}

// Sole reports whether v's count is exactly 1, for a caller that holds a
// counted local reference to v: then that reference is the only one and no
// pointer cell links to v. Every other way to gain a reference to v needs a
// link or a reference to copy, so a true answer stays true until the caller
// releases v. Under split the count is the links' stashes plus one unit per
// local reference, so the same test holds.
func (c *RC) Sole(v mem.Ref) bool { return c.e.Read(c.h.RCAddr(v)) == 1 }

// Copy implements LFRCCopy (Figure 2, lines 29–32): it assigns pointer value
// w to the local pointer variable *v, adjusting both reference counts.
func (c *RC) Copy(v *mem.Ref, w mem.Ref) {
	t0 := c.obs.Sample()
	var oldrc uint64
	if w != 0 {
		oldrc = c.addToRC(obs.KindCopy, w, 1)
	}
	old := *v
	*v = w
	c.recordT(t0, obs.KindCopy, w, 0, true, 0, oldrc, 1)
	k := tCopy
	if old != 0 {
		c.releaseRef(old)
		k = tCopyDestroy
	}
	c.count(k)
}

// CAS implements LFRCCAS: the single-location simplification of DCAS (paper
// §2.2 and Figure 2 caption). The comparison is over abstract pointer values
// — the strategy's Swing absorbs weight-stash churn internally.
func (c *RC) CAS(a mem.Addr, old, new mem.Ref) bool {
	t0 := c.obs.Sample()
	var oldrc uint64
	lc := c.strat.LinkCredit()
	if new != 0 {
		oldrc = c.addToRC(obs.KindCAS, new, lc)
	}
	// An injected firing fails the whole operation: the caller observes a
	// lost CAS and the provisional credit on new is compensated below — the
	// exact path a genuine failure takes.
	if !c.fj.Inject(fault.CoreCAS) {
		if d, ok := c.strat.Swing(c, a, old, new); ok {
			c.recordT(t0, obs.KindCAS, new, a, true, 0, oldrc, lc)
			c.count(tCAS + c.releaseWord(d))
			return true
		}
	}
	c.recordT(t0, obs.KindCAS, new, a, false, 0, oldrc, lc)
	c.count(tCAS + c.releaseWeight(new, lc))
	return false
}

// DCAS implements LFRCDCAS (Figure 2, lines 33–39): reference counts of the
// new referents are credited before the attempt; on success the two
// displaced links are released, on failure the two provisional credits are
// compensated.
func (c *RC) DCAS(a0, a1 mem.Addr, old0, old1, new0, new1 mem.Ref) bool {
	t0 := c.obs.Sample()
	var oldrc0 uint64
	lc := c.strat.LinkCredit()
	if new0 != 0 {
		oldrc0 = c.addToRC(obs.KindDCAS, new0, lc)
	}
	if new1 != 0 {
		c.addToRC(obs.KindDCAS, new1, lc)
	}
	if !c.fj.Inject(fault.CoreDCAS) {
		if d0, d1, ok := c.strat.SwingPair(c, a0, a1, old0, old1, new0, new1); ok {
			c.recordT(t0, obs.KindDCAS, new0, a0, true, 0, oldrc0, lc)
			c.count(tDCAS + c.releasePair(d0, d1))
			return true
		}
	}
	c.recordT(t0, obs.KindDCAS, new0, a0, false, 0, oldrc0, lc)
	// Compensating the two credits is releasing the two links the DCAS
	// would have published.
	c.count(tDCAS + c.releasePair(c.strat.Pack(new0), c.strat.Pack(new1)))
	return false
}

// releaseWord releases the link credit carried by a displaced pointer word
// and reports the release outcome (see releaseWeight).
func (c *RC) releaseWord(u uint64) tally {
	return c.releaseWeight(c.strat.Ref(u), c.strat.Weight(u))
}

// releasePair releases two displaced pointer words from one DCAS, keeping
// the figure2 path on the exact batched-Destroy shape it always had, and
// reports the pair's outcome as an offset from tDCAS.
func (c *RC) releasePair(d0, d1 uint64) tally {
	w0, w1 := c.strat.Weight(d0), c.strat.Weight(d1)
	if w0 <= 1 && w1 <= 1 {
		c.destroy(c.strat.Ref(d0), c.strat.Ref(d1))
		return pair(tally(w0), tally(w1)) // weight 0 is rNone, 1 is rDestroy
	}
	return pair(c.releaseWord(d0), c.releaseWord(d1))
}

// releaseWeight drops w units of v's reference count, retiring v when the
// count hits zero, and reports the outcome: rNone for a null v, rDestroy
// for weight 1 — exactly Destroy of one local reference — and rMerge for a
// larger weight, a split-strategy external merge that folds a destroyed
// link's remaining stash back into the count in one update.
func (c *RC) releaseWeight(v mem.Ref, w int64) tally {
	if v == 0 || w <= 0 {
		return rNone
	}
	if w == 1 {
		c.releaseRef(v)
		return rDestroy
	}
	old := c.addToRC(obs.KindDestroy, v, -w)
	hitZero := old == uint64(w)
	c.recordT(0, obs.KindDestroy, v, 0, hitZero, 0, old, -w)
	if hitZero {
		c.rec.Retire(v, 0)
	}
	return rMerge
}

// releaseRef is Destroy of one non-null local reference: v's count drops by
// one and v is retired if it hit zero. The caller counts it.
func (c *RC) releaseRef(v mem.Ref) {
	t0 := c.obs.Sample()
	old := c.addToRC(obs.KindDestroy, v, -1)
	c.recordT(t0, obs.KindDestroy, v, 0, old == 1, 0, old, -1)
	if old == 1 {
		c.rec.Retire(v, 0)
	}
}

// Destroy implements LFRCDestroy (Figure 2, lines 13–15) for any number of
// local pointer values: each non-null argument's count is decremented, and
// objects whose count reaches zero are retired to the Reclaimer — which
// releases every pointer they contain when it frees them, eagerly or, past
// the incremental-destroy budget, deferred on the zombie stack.
func (c *RC) Destroy(vs ...mem.Ref) {
	if n := c.destroy(vs...); n > 0 {
		c.st().n[tDestroy].Add(n)
	}
}

// destroy is Destroy without the counting: it returns the number of
// non-null refs it released. The first ref that dies is the Retire root;
// any further ones are threaded through their link words onto the chain
// handed along with it, so a single death writes no link word and no death
// allocates.
func (c *RC) destroy(vs ...mem.Ref) int64 {
	t0 := c.obs.Sample()
	var root, more mem.Ref
	n := int64(0)
	for _, v := range vs {
		if v == 0 {
			continue
		}
		n++
		old := c.addToRC(obs.KindDestroy, v, -1)
		hitZero := old == 1
		// The first released ref carries the sampled latency token; the
		// rest are sink-only (t0 = 0) so every decrement still reaches a
		// tracked object's lifecycle timeline with its rc transition.
		c.recordT(t0, obs.KindDestroy, v, 0, hitZero, 0, old, -1)
		t0 = 0
		if hitZero {
			if root == 0 {
				root = v
			} else {
				more = reclaim.Push(c, more, v)
			}
		}
	}
	if root != 0 {
		c.rec.Retire(root, more)
	}
	return n
}

// ReleaseChildren implements reclaim.Env: it decrements the reference count
// of every pointer field of p, nulls the field, and pushes children whose
// count reached zero onto chain, returning the new head. The Reclaimer
// calls it at free time (a budget-parked zombie keeps its fields until its
// destruction resumes, §7). Nulling is safe: p is count-zero and
// unreachable, and it keeps a mid-drain Audit consistent — a cleared field
// contributes no expected count, matching the already-decremented child.
// The releases are counted on proc's stripe.
func (c *RC) ReleaseChildren(p, chain mem.Ref, proc int) mem.Ref {
	d, err := c.h.Type(c.h.TypeOf(p))
	if err != nil {
		return chain
	}
	var destroys, merges int64
	for _, f := range d.PtrFields {
		u := c.e.Read(c.h.FieldAddr(p, f))
		child := c.strat.Ref(u)
		if child == 0 {
			continue
		}
		c.h.Store(c.h.FieldAddr(p, f), 0)
		// The dying link's whole remaining weight merges back in one update
		// (weight is always 1 under figure2).
		w := c.strat.Weight(u)
		if w > 1 {
			merges++
		} else {
			destroys++
		}
		old := c.addToRC(obs.KindDestroy, child, -w)
		c.recordT(0, obs.KindDestroy, child, 0, old == uint64(w), 0, old, -w)
		if old == uint64(w) {
			chain = reclaim.Push(c, chain, child)
		}
	}
	st := &c.stats[stripe.Of(proc, len(c.stats))]
	if destroys > 0 {
		st.n[tDestroy].Add(destroys)
	}
	if merges > 0 {
		st.n[tMerge].Add(merges)
	}
	return chain
}

// FreeObject implements reclaim.Env: it returns p's slot to proc's heap
// shard, counting only reclamations the heap rejects (double frees caused
// by corrupted counts). The Reclaimer counts every call, so Stats derives
// the successful frees from its count.
func (c *RC) FreeObject(p mem.Ref, proc int) {
	if err := c.h.FreeOn(p, proc); err != nil {
		c.stats[stripe.Of(proc, len(c.stats))].n[tFreeError].Add(1)
	}
}

// LinkLoad implements reclaim.Env: it reads p's aux word, the cell retire
// chains and the zombie stack link through.
func (c *RC) LinkLoad(p mem.Ref) uint64 { return c.h.Load(c.h.AuxAddr(p)) }

// LinkStore implements reclaim.Env: it writes p's aux word.
func (c *RC) LinkStore(p mem.Ref, v uint64) { c.h.Store(c.h.AuxAddr(p), v) }

// DrainZombies finishes up to max deferred reclamations (0 = all),
// returning the number of objects actually freed.
func (c *RC) DrainZombies(max int) int { return c.rec.Drain(max) }

// ZombieCount reports the number of objects currently parked for deferred
// reclamation (the zombie stack's backlog).
func (c *RC) ZombieCount() int64 { return c.rec.Pending() }

// addToRC implements add_to_rc (Figure 2, lines 16–20): a CAS loop adding v
// to p's reference count and returning the count's previous value. It is
// safe only when the caller knows a counted reference to p exists (paper
// §5); NaiveLoad violates that precondition on purpose. Updates that find
// poison in the count cell — evidence of a use-after-free — are tallied in
// Stats().PoisonedRCUpdates and still performed, faithfully simulating the
// memory corruption the paper describes.
func (c *RC) addToRC(kind obs.Kind, p mem.Ref, v int64) uint64 {
	a := c.h.RCAddr(p)
	var retries uint32
	for {
		old := c.e.Read(a)
		if old >= mem.Poison && old <= mem.Poison+8 {
			c.count(tPoisoned)
		}
		if c.fj.Inject(fault.CoreAddToRC) {
			retries++
			continue
		}
		// The mask keeps a count that corruption drove below zero (a
		// NaiveLoad decrement on a recycled slot) out of the engines' tag
		// bits, where the locking engine would read it as held forever.
		if c.e.CAS(a, old, uint64(int64(old)+v)&mem.ValueMask) {
			if retries > 0 {
				c.ct.OpDone(kind, uint32(a), contend.RoleRC, 0, contend.RoleUnknown, retries)
			}
			return old
		}
		retries++
		c.ct.Attempt(kind, uint32(a), contend.RoleRC, 0, contend.RoleUnknown, true, false)
	}
}

// recordT records one operation's flight event carrying its rc transition:
// the count before the update and the count after applying delta. A null ref
// carries no transition; counts are truncated to 32 bits (a poisoned count
// truncates to a distinctive 0xEF5C0DED). Without a recorder it costs one
// check that inlines into the operation.
func (c *RC) recordT(t0 int64, kind obs.Kind, ref mem.Ref, addr mem.Addr, ok bool, retries uint32, old uint64, delta int64) {
	if c.obs != nil {
		c.recordTransition(t0, kind, ref, addr, ok, retries, old, delta)
	}
}

// recordTransition is recordT's body once a recorder is attached.
func (c *RC) recordTransition(t0 int64, kind obs.Kind, ref mem.Ref, addr mem.Addr, ok bool, retries uint32, old uint64, delta int64) {
	var o, n uint32
	if ref != 0 {
		o, n = uint32(old), uint32(uint64(int64(old)+delta))
	}
	c.obs.RecordT(t0, kind, uint32(ref), uint32(addr), ok, retries, o, n)
}

// AttributeLinks assigns blame for a failed pointer-cell CAS/DCAS the way
// dcas.Attribute does, but over abstract pointer values: the two cells are
// re-read and decoded through the strategy before comparing, so split-
// strategy weight-stash churn is not mistaken for pointer motion. Structure
// packages attribute their own retry loops through it.
func (c *RC) AttributeLinks(a0, a1 mem.Addr, old0, old1 mem.Ref) (m0, m1 bool) {
	m0 = c.strat.Ref(c.e.Read(a0)) != old0
	if a1 != a0 {
		m1 = c.strat.Ref(c.e.Read(a1)) != old1
	}
	return m0, m1
}

// RCOf returns the current reference count of p (diagnostics only).
func (c *RC) RCOf(p mem.Ref) uint64 { return c.e.Read(c.h.RCAddr(p)) }

// WordLoad reads a non-pointer (scalar) cell through the engine. Scalar
// fields are outside the LFRC protocol but still share cells with DCAS
// traffic, so they must be read engine-aware.
func (c *RC) WordLoad(a mem.Addr) uint64 { return c.e.Read(a) }

// SnapshotRead reads the cell at a for a strictly read-only observer (the
// heap census and the lifecycle auditor). Unlike WordLoad it never goes
// through the engine: Engine.Read helps in-flight MCAS operations to
// completion, which mutates shared cells — exactly what an observer
// guaranteed to be side-effect-free must not do. Instead it takes a
// plain atomic load; if the value carries an engine tag (a software-MCAS
// descriptor, or the locking engine's lock bit while a DCAS holds the cell)
// it backs off briefly and retries, and after a bounded number of attempts
// reports 0. The observer sees the edge as momentarily absent rather than
// reading engine-internal state.
func (c *RC) SnapshotRead(a mem.Addr) uint64 {
	for i := 0; ; i++ {
		v := c.h.Load(a)
		if v&^mem.ValueMask == 0 {
			return v
		}
		if i >= 8 {
			return 0
		}
		runtime.Gosched()
	}
}

// WordStore writes a non-pointer (scalar) cell through the engine.
func (c *RC) WordStore(a mem.Addr, v uint64) { c.e.Write(a, v) }

// WordCAS compare-and-swaps a non-pointer (scalar) cell through the engine.
func (c *RC) WordCAS(a mem.Addr, old, new uint64) bool { return c.e.CAS(a, old, new) }

// tally names one counted outcome of one LFRC operation. On its non-retry
// path every operation makes one P lookup and adds one to the tally of its
// outcome; Stats derives the per-kind counters (Loads, Destroys, ExtMerges,
// ...) from the tallies when it is read. An operation that releases a
// displaced link or a compensated credit is keyed by the release outcome,
// added to its base tally: nothing released (rNone), a weight-1 release
// (rDestroy), or a split-strategy external merge (rMerge), which also
// counts as a Destroy.
type tally uint8

// Release outcomes, as offsets from an operation's base tally.
const (
	rNone tally = iota
	rDestroy
	rMerge
)

const (
	tAlloc tally = iota

	// Load and NaiveLoad, into a null dest or releasing the old referent of
	// a live one (a list hop); the Refill pair is a split Load that
	// recharged a drained stash.
	tLoad
	tLoadHop
	tLoadRefill
	tLoadRefillHop

	// Store and StoreAlloc, by the release of the displaced link.
	tStore
	tStoreDestroy
	tStoreMerge

	// Copy, by the release of the overwritten local reference.
	tCopy
	tCopyDestroy

	// CAS, by the release of the displaced link or compensated credit.
	tCAS
	tCASDestroy
	tCASMerge

	// DCAS and DCASMixed, by their two releases in either order (see pair).
	tDCAS
	tDCASDestroy
	tDCASMerge
	tDCASDestroy2
	tDCASDestroyMerge
	tDCASMerge2

	// tDestroy counts Destroy's non-null refs and the weight-1 child links
	// freed objects release, n at a time; tMerge the weighted child links
	// merged back.
	tDestroy
	tMerge

	// Off the non-retry path.
	tLoadRetry
	tPoisoned
	tFreeError

	numTallies
)

// pair is the outcome of a DCAS's two releases as an offset from tDCAS, in
// either order: none, destroy, merge, destroy+destroy, destroy+merge,
// merge+merge.
func pair(r0, r1 tally) tally {
	if r0 == rNone || r1 == rNone {
		return r0 + r1
	}
	return r0 + r1 + 1
}

// opStripe is one stripe of the RC's tallies, padded out to a cache-line
// multiple so neighbouring stripes never false-share.
type opStripe struct {
	n [numTallies]atomic.Int64
	_ [(64 - int(numTallies)*8%64) % 64]byte
}

// Stats is a snapshot of LFRC operation counters.
type Stats struct {
	// Allocs counts NewObject calls; Frees counts objects reclaimed when
	// their count hit zero. FreeErrors counts reclamations the heap
	// rejected (double frees caused by corrupted counts).
	Allocs, Frees, FreeErrors int64

	// Loads, Stores, Copies, CASOps, DCASOps and Destroys count the
	// corresponding LFRC operations; LoadRetries counts DCAS failures
	// inside Load (contention on the pointer or its referent's count).
	Loads, LoadRetries, Stores, Copies, CASOps, DCASOps, Destroys int64

	// ZombiePushes counts objects parked on the zombie stack.
	ZombiePushes int64

	// PoisonedRCUpdates counts reference-count updates that found poison
	// in the count cell — each one is a use-after-free that DCAS-based
	// Load would have prevented.
	PoisonedRCUpdates int64

	// WeightRefills and ExtMerges are split-strategy traffic (always 0
	// under figure2): refills recharge a drained link weight stash via the
	// slow-path DCAS, merges fold a destroyed link's remaining stash back
	// into the internal count in one update.
	WeightRefills, ExtMerges int64
}

// Stats returns a snapshot of the RC's counters: the tallies summed across
// stripes, with the per-kind counters derived from them. Frees is the
// Reclaimer's count of freed objects less the ones the heap rejected, read
// after the tallies so a snapshot taken while a double free is in flight
// cannot run ahead of it; at quiescence every field is exact.
func (c *RC) Stats() Stats {
	var n [numTallies]int64
	for i := range c.stats {
		st := &c.stats[i]
		for k := range n {
			n[k] += st.n[k].Load()
		}
	}
	rs := c.rec.Stats()
	hops := n[tLoadHop] + n[tLoadRefillHop]
	refills := n[tLoadRefill] + n[tLoadRefillHop]
	merges := n[tStoreMerge] + n[tCASMerge] + n[tDCASMerge] + n[tDCASDestroyMerge] + 2*n[tDCASMerge2] + n[tMerge]
	return Stats{
		Allocs:      n[tAlloc],
		Frees:       rs.Freed - n[tFreeError],
		FreeErrors:  n[tFreeError],
		Loads:       n[tLoad] + n[tLoadHop] + n[tLoadRefill] + n[tLoadRefillHop],
		LoadRetries: n[tLoadRetry],
		Stores:      n[tStore] + n[tStoreDestroy] + n[tStoreMerge],
		Copies:      n[tCopy] + n[tCopyDestroy],
		CASOps:      n[tCAS] + n[tCASDestroy] + n[tCASMerge],
		DCASOps: n[tDCAS] + n[tDCASDestroy] + n[tDCASMerge] +
			n[tDCASDestroy2] + n[tDCASDestroyMerge] + n[tDCASMerge2],
		// Every merge is also a Destroy; the rest are weight-1 releases.
		Destroys: merges + hops + n[tStoreDestroy] + n[tCopyDestroy] + n[tCASDestroy] +
			n[tDCASDestroy] + 2*n[tDCASDestroy2] + n[tDCASDestroyMerge] + n[tDestroy],
		ZombiePushes:      rs.Parked,
		PoisonedRCUpdates: n[tPoisoned],
		WeightRefills:     refills,
		ExtMerges:         merges,
	}
}
