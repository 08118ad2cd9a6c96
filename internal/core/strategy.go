package core

import (
	"lfrc/internal/contend"
	"lfrc/internal/dcas"
	"lfrc/internal/fault"
	"lfrc/internal/mem"
	"lfrc/internal/obs"
)

// This file is the pluggable reference-count strategy seam. The paper's
// Figure 2 keeps one count per object and guards *every* Load with a DCAS on
// (pointer cell, count cell) — which is what makes rc words rank among the
// hottest DCAS failure sites in the contention observatory even at low
// parallelism: every reader of a popular cell serializes on the referent's
// count word.
//
// The seam splits the protocol into a codec over pointer-cell words plus the
// handful of decision points where the two strategies differ, so the
// operation shells in core.go stay shared:
//
//   - figure2: the paper-faithful baseline. A pointer cell holds the bare
//     ref; every reference (link or local) is worth exactly 1; Load is the
//     Figure-2 DCAS. Kept bit-for-bit identical to the pre-seam code so it
//     remains the ablation baseline.
//   - split: weighted reference counting. Each *link* (shared pointer cell)
//     carries an external count — a weight stash packed into the upper bits
//     of the pointer word — while the object's count word holds the total
//     outstanding weight. Load borrows one unit from the stash with a
//     single-word CAS on the pointer cell alone: the count word is untouched
//     on the read fast path, which is the hot spot this strategy exists to
//     kill. Only link creation/destruction (and the rare stash refill) touch
//     the count word, and stash destruction merges the remaining external
//     weight back with one add.
//
// The split invariant is the weighted-RC one: an object's count equals the
// sum of the weights of all references to it — packed link stashes plus
// weight-1 local refs. No premature free: a borrow succeeds only while the
// link exists (the CAS re-validates the pointer word), and the borrowed unit
// was already in the count. No leak: every unit borrowed or packed is
// eventually returned through Destroy or a merge. The §5 use-after-free
// window does not reopen: the fast path never touches the referent's memory
// at all, and the refill path uses the same DCAS shape as Figure-2 Load.

// StrategyKind selects a reference-count strategy at construction.
type StrategyKind int

const (
	// StrategyFigure2 is the paper's single-count protocol (the default).
	StrategyFigure2 StrategyKind = iota + 1
	// StrategySplit is the weighted external/internal split-count protocol.
	StrategySplit
)

// Split-strategy packing layout for pointer-cell words: the ref lives in the
// low 32 bits (mem.Ref is 32-bit), the link's weight stash in bits 32..61.
// Bit 61 is shared with structure-level scalar marks (e.g. the Snark claim
// bit), but those live in scalar cells — a disjoint cell population — and
// both stay inside mem.ValueMask, clear of the MCAS descriptor tag bits.
const (
	splitRefMask     = uint64(1)<<32 - 1
	splitWeightShift = 32
	splitMaxWeight   = int64(1)<<29 - 1

	// splitDefaultWeight is the stash installed on each new link and added
	// back on each refill. Large enough that refills are vanishingly rare
	// (one count-word DCAS per 2^16 loads of one link), small enough that
	// thousands of links to one object stay far from count overflow.
	splitDefaultWeight = int64(1) << 16
)

// Strategy is the reference-count protocol behind the LFRC operations. The
// operation shells in core.go (Store/StoreAlloc/CAS/DCAS/Destroy/...) are
// strategy-generic; a Strategy supplies the pointer-word codec, the credit
// discipline for links, and the two loops whose shape genuinely differs
// (Load, and the one-shot link swings).
//
// Word codec: pointer cells hold Pack(v)-encoded words; Ref and Weight
// decode them. Weight is the reference-count credit the cell's link carries
// (0 for null). Credits: LinkCredit is added to a referent's count before a
// new link to it is published; AllocCredit is the extra credit StoreAlloc
// must add beyond the weight-1 reference transferred from NewObject.
type Strategy interface {
	Name() string

	Ref(word uint64) mem.Ref
	Weight(word uint64) int64
	Pack(v mem.Ref) uint64

	LinkCredit() int64
	AllocCredit() int64

	// Load secures a weight-1 counted reference to the referent of the
	// pointer cell at a (or 0 if null), running the strategy's retry loop
	// with fault injection and contention attribution. It returns the
	// loaded ref, the pre-update value of whichever counter the strategy
	// touched, the delta applied to it (for the lifecycle rc-transition
	// event), the retry count, and whether it recharged a drained link
	// stash (split only), which the caller counts with the load.
	Load(c *RC, a mem.Addr) (v mem.Ref, old uint64, delta int64, retries uint32, refilled bool)

	// Swing is one abstract CAS attempt on the pointer cell at a: replace
	// the link to old with a full-credit link to new iff the cell still
	// points at old. On success it returns the displaced word (whose weight
	// the caller must release). Weight-only churn from concurrent borrows
	// is absorbed internally — Swing fails only when the *pointer* moved,
	// so callers keep Figure-2 CAS semantics.
	Swing(c *RC, a mem.Addr, old, new mem.Ref) (displaced uint64, ok bool)

	// SwingPair is Swing over two pointer cells at once (LFRCDCAS).
	SwingPair(c *RC, a0, a1 mem.Addr, old0, old1, new0, new1 mem.Ref) (d0, d1 uint64, ok bool)

	// SwingMixed is Swing where a0 is a pointer cell and a1 a scalar cell
	// outside the counting protocol (DCASMixed; see mixed.go).
	SwingMixed(c *RC, a0 mem.Addr, old0, new0 mem.Ref, a1 mem.Addr, old1, new1 uint64) (d0 uint64, ok bool)

	// FailRole attributes one failed blind-store CAS that read word u from
	// cell a: the role of what most likely moved it (pointer churn vs
	// weight-stash noise from concurrent borrows).
	FailRole(c *RC, a mem.Addr, u uint64) contend.Role
}

// strategyFor builds the Strategy for a kind, clamping split weights into
// the packable range.
func strategyFor(k StrategyKind, link, refill int64) Strategy {
	if k == StrategySplit {
		clamp := func(w int64) int64 {
			if w < 1 {
				return splitDefaultWeight
			}
			if w > splitMaxWeight {
				return splitMaxWeight
			}
			return w
		}
		return &splitStrategy{link: clamp(link), refill: clamp(refill)}
	}
	return figure2Strategy{}
}

// figure2Strategy is the paper's protocol: bare refs in pointer cells, every
// reference worth 1, Load guarded by the Figure-2 DCAS.
type figure2Strategy struct{}

func (figure2Strategy) Name() string          { return "figure2" }
func (figure2Strategy) Ref(w uint64) mem.Ref  { return mem.Ref(w) }
func (figure2Strategy) Pack(v mem.Ref) uint64 { return uint64(v) }
func (figure2Strategy) LinkCredit() int64     { return 1 }
func (figure2Strategy) AllocCredit() int64    { return 0 }
func (figure2Strategy) Weight(w uint64) int64 {
	if w == 0 {
		return 0
	}
	return 1
}

// Load implements LFRCLoad (paper Figure 2, lines 1–12): the pointer is
// loaded and the referent's count incremented atomically — via DCAS — with
// the check that the pointer still exists.
func (figure2Strategy) Load(c *RC, a mem.Addr) (mem.Ref, uint64, int64, uint32, bool) {
	var retries uint32
	for {
		v := mem.Ref(c.e.Read(a))
		if v == 0 {
			c.loadDone(a, 0, retries)
			return 0, 0, 1, retries, false
		}
		r := c.e.Read(c.h.RCAddr(v))
		if c.LoadHook != nil {
			c.LoadHook(v)
		}
		// A zero or poisoned count means v died after the pointer read: a
		// link to v holds a count, so the DCAS would fail on a. Retry
		// without issuing it. Issued, it would lock the count cell, or
		// install a descriptor in it, while the heap poisons and recycles
		// the slot; were the new object then linked into a, the DCAS would
		// commit against a count it no longer holds. An injected firing
		// here lands in the paper's §5 window — between reading (v, rc) and
		// the DCAS — and forces the same path.
		if r == 0 || r >= mem.Poison || c.fj.Inject(fault.CoreLoad) {
			retries++
			c.count(tLoadRetry)
			continue
		}
		if c.e.DCAS(a, c.h.RCAddr(v), uint64(v), r, uint64(v), r+1) {
			c.loadDone(a, v, retries)
			return v, r, 1, retries, false
		}
		retries++
		c.count(tLoadRetry)
		if c.ct != nil {
			m0, m1 := dcas.Attribute(c.e, a, c.h.RCAddr(v), uint64(v), r)
			c.ct.Attempt(obs.KindLoad, uint32(a), contend.RolePointer,
				uint32(c.h.RCAddr(v)), contend.RoleRC, m0, m1)
		}
	}
}

// loadDone reports a contended Load's retry chain once it completes.
func (c *RC) loadDone(a mem.Addr, v mem.Ref, retries uint32) {
	if retries == 0 {
		return
	}
	var rcA uint32
	if v != 0 {
		rcA = uint32(c.h.RCAddr(v))
	}
	c.ct.OpDone(obs.KindLoad, uint32(a), contend.RolePointer, rcA, contend.RoleRC, retries)
}

func (figure2Strategy) Swing(c *RC, a mem.Addr, old, new mem.Ref) (uint64, bool) {
	if c.e.CAS(a, uint64(old), uint64(new)) {
		return uint64(old), true
	}
	return 0, false
}

func (figure2Strategy) SwingPair(c *RC, a0, a1 mem.Addr, old0, old1, new0, new1 mem.Ref) (uint64, uint64, bool) {
	if c.e.DCAS(a0, a1, uint64(old0), uint64(old1), uint64(new0), uint64(new1)) {
		return uint64(old0), uint64(old1), true
	}
	return 0, 0, false
}

func (figure2Strategy) SwingMixed(c *RC, a0 mem.Addr, old0, new0 mem.Ref, a1 mem.Addr, old1, new1 uint64) (uint64, bool) {
	if c.e.DCAS(a0, a1, uint64(old0), old1, uint64(new0), new1) {
		return uint64(old0), true
	}
	return 0, false
}

func (figure2Strategy) FailRole(*RC, mem.Addr, uint64) contend.Role { return contend.RolePointer }

// splitStrategy is weighted reference counting: links carry a packed weight
// stash, the count word holds total outstanding weight, and Load borrows
// from the stash with a single-word CAS.
type splitStrategy struct {
	link   int64 // stash installed on each new link
	refill int64 // weight added when a drained stash is recharged
}

func (s *splitStrategy) Name() string { return "split" }

func (s *splitStrategy) Ref(w uint64) mem.Ref { return mem.Ref(w & splitRefMask) }

func (s *splitStrategy) Weight(w uint64) int64 {
	if w&splitRefMask == 0 {
		return 0
	}
	// A correctly published link always carries ≥1; treat a bare-ref word
	// (weight bits zero) as a weight-1 link so a stray legacy word cannot
	// make a release vanish.
	if wt := int64(w >> splitWeightShift); wt > 0 {
		return wt
	}
	return 1
}

func (s *splitStrategy) pack(v mem.Ref, w int64) uint64 {
	if v == 0 {
		return 0
	}
	return uint64(v) | uint64(w)<<splitWeightShift
}

func (s *splitStrategy) Pack(v mem.Ref) uint64 { return s.pack(v, s.link) }

func (s *splitStrategy) LinkCredit() int64  { return s.link }
func (s *splitStrategy) AllocCredit() int64 { return s.link - 1 }

// Load borrows one weight unit from the link's stash. Fast path: a single
// CAS on the pointer cell decrements the packed weight — the referent's
// count word is never read or written, so rc cells stay cold under read
// traffic. When the stash is down to its last unit, the slow path recharges
// it with a Figure-2-shaped DCAS on (pointer cell, count word), adding
// refill units to both sides at once; the stash therefore never reaches 0,
// which keeps "link exists ⇒ stash ≥ 1 ⇒ count ≥ 1" — no premature free.
func (s *splitStrategy) Load(c *RC, a mem.Addr) (mem.Ref, uint64, int64, uint32, bool) {
	var retries uint32
	for {
		u := c.e.Read(a)
		v := mem.Ref(u & splitRefMask)
		if v == 0 {
			c.loadDone(a, 0, retries)
			return 0, 0, 1, retries, false
		}
		if c.LoadHook != nil {
			c.LoadHook(v)
		}
		if c.fj.Inject(fault.CoreLoad) {
			retries++
			c.count(tLoadRetry)
			continue
		}
		if w := int64(u >> splitWeightShift); w > 1 {
			if c.e.CAS(a, u, u-(1<<splitWeightShift)) {
				c.loadDone(a, v, retries)
				return v, uint64(w), -1, retries, false
			}
		} else {
			// A zero or poisoned count: v died; see figure2Strategy.Load.
			r := c.e.Read(c.h.RCAddr(v))
			if r != 0 && r < mem.Poison && c.e.DCAS(a, c.h.RCAddr(v), u, r, s.pack(v, s.refill), r+uint64(s.refill)) {
				c.loadDone(a, v, retries)
				return v, r, s.refill, retries, true
			}
		}
		retries++
		c.count(tLoadRetry)
		if c.ct != nil {
			// Attribute the lost race: if the pointer itself moved this is
			// ordinary pointer churn; if only the weight bits changed, the
			// contender was another borrower — the split strategy's own
			// external-count traffic, tagged rc_ext so the heatmap can
			// distinguish it from the figure2 rc hot spot.
			role := contend.RoleRCExt
			if mem.Ref(c.e.Read(a)&splitRefMask) != v {
				role = contend.RolePointer
			}
			c.ct.Attempt(obs.KindLoad, uint32(a), role, 0, contend.RoleUnknown, true, false)
		}
	}
}

// Swing retries internally while only the weight bits of the cell churn
// (concurrent borrows): the abstract pointer value is unchanged, so failing
// the caller's CAS would break Figure-2 semantics over refs. It reports
// failure only when the pointer itself no longer equals old.
func (s *splitStrategy) Swing(c *RC, a mem.Addr, old, new mem.Ref) (uint64, bool) {
	nw := s.Pack(new)
	for {
		u := c.e.Read(a)
		if mem.Ref(u&splitRefMask) != old {
			return 0, false
		}
		if c.e.CAS(a, u, nw) {
			return u, true
		}
	}
}

func (s *splitStrategy) SwingPair(c *RC, a0, a1 mem.Addr, old0, old1, new0, new1 mem.Ref) (uint64, uint64, bool) {
	n0, n1 := s.Pack(new0), s.Pack(new1)
	for {
		u0 := c.e.Read(a0)
		if mem.Ref(u0&splitRefMask) != old0 {
			return 0, 0, false
		}
		u1 := c.e.Read(a1)
		if mem.Ref(u1&splitRefMask) != old1 {
			return 0, 0, false
		}
		if c.e.DCAS(a0, a1, u0, u1, n0, n1) {
			return u0, u1, true
		}
	}
}

func (s *splitStrategy) SwingMixed(c *RC, a0 mem.Addr, old0, new0 mem.Ref, a1 mem.Addr, old1, new1 uint64) (uint64, bool) {
	n0 := s.Pack(new0)
	for {
		u0 := c.e.Read(a0)
		if mem.Ref(u0&splitRefMask) != old0 {
			return 0, false
		}
		if c.e.Read(a1) != old1 {
			return 0, false
		}
		if c.e.DCAS(a0, a1, u0, old1, n0, new1) {
			return u0, true
		}
	}
}

func (s *splitStrategy) FailRole(c *RC, a mem.Addr, u uint64) contend.Role {
	if c.e.Read(a)&splitRefMask != u&splitRefMask {
		return contend.RolePointer
	}
	return contend.RoleRCExt
}
