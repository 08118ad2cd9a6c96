package reclaim

import (
	"runtime"
	"sync/atomic"

	"lfrc/internal/fault"
	"lfrc/internal/mem"
	"lfrc/internal/obs"
	"lfrc/internal/stripe"
)

// lfrcReclaimer is the paper-faithful backend: count-zero objects are
// destroyed eagerly, except that a positive budget caps the reclamation work
// done by any single Retire call (the paper's §7 incremental collection of
// large structures) and parks the remainder on a zombie stack.
//
// The zombie stack is a Treiber stack linked through each parked object's
// link word; the head packs a 32-bit pop counter with the 32-bit object
// address (cnt<<32 | ref) so a pop that raced with a push-pop-push of the
// same object cannot succeed on a stale next pointer (ABA).
type lfrcReclaimer struct {
	env    Env
	budget int
	obs    *obs.Recorder
	fj     *fault.Injector

	head    atomic.Uint64
	pending atomic.Int64
	parked  atomic.Int64
	drains  atomic.Int64

	// counts holds the retired and freed tallies every Retire adds to,
	// striped by P so clients freeing at once never share a line through
	// them; Stats sums the stripes.
	counts []retireStripe
}

// retireStripe is one stripe of the lfrc backend's per-free accounting,
// padded to a cache line.
type retireStripe struct {
	retired atomic.Int64
	freed   atomic.Int64
	_       [48]byte
}

func newLFRC(env Env, cfg config) *lfrcReclaimer {
	return &lfrcReclaimer{env: env, budget: cfg.budget, obs: cfg.obs, fj: cfg.fj,
		counts: make([]retireStripe, stripe.Clamp(0, runtime.GOMAXPROCS(0)))}
}

// st routes the calling goroutine to the counter stripe of the P it runs on.
func (z *lfrcReclaimer) st() *retireStripe { return &z.counts[stripe.Hint(len(z.counts))] }

// Name implements Reclaimer.
func (z *lfrcReclaimer) Name() string { return KindLFRC.String() }

// Retire implements Reclaimer: it frees the roots (and any descendants that
// hit zero) immediately, up to the incremental-destroy budget for the whole
// call; excess objects park on the zombie stack for a later Drain.
func (z *lfrcReclaimer) Retire(root, more mem.Ref) {
	n := int64(1)
	if more != 0 {
		n = roots(z.env, more)
	}
	st := z.st()
	st.retired.Add(n)
	st.freed.Add(int64(freeDFS(z.env, root, more, z.budget, z.push)))
}

// Drain implements Reclaimer: it reclaims up to max parked objects (and
// their newly dead descendants), returning the number actually freed. A max
// of 0 drains everything.
func (z *lfrcReclaimer) Drain(max int) int {
	z.drains.Add(1)
	processed := 0
	for max <= 0 || processed < max {
		p := z.pop()
		if p == 0 {
			break
		}
		budget := 0
		if max > 0 {
			budget = max - processed
		}
		processed += freeDFS(z.env, p, 0, budget, z.push)
	}
	z.st().freed.Add(int64(processed))
	return processed
}

// Pending implements Reclaimer.
func (z *lfrcReclaimer) Pending() int64 { return z.pending.Load() }

// Stats implements Reclaimer.
func (z *lfrcReclaimer) Stats() Stats {
	s := Stats{
		Backend: z.Name(),
		Parked:  z.parked.Load(),
		Pending: z.pending.Load(),
		Drains:  z.drains.Load(),
	}
	for i := range z.counts {
		s.Retired += z.counts[i].retired.Load()
		s.Freed += z.counts[i].freed.Load()
	}
	return s
}

// push parks a dead object (count already zero) on the zombie stack,
// linking through its link word.
func (z *lfrcReclaimer) push(p mem.Ref) {
	for {
		old := z.head.Load()
		z.env.LinkStore(p, link(mem.Ref(old&0xFFFF_FFFF)))
		if z.fj.Inject(fault.ReclaimPush) {
			continue
		}
		if z.head.CompareAndSwap(old, old&^uint64(0xFFFF_FFFF)|uint64(p)) {
			z.pending.Add(1)
			z.parked.Add(1)
			z.obs.Note(obs.KindZombiePush, uint32(p), 0)
			return
		}
	}
}

// pop removes one parked object, or returns 0 if none are parked. The pop
// counter in the head's high half increments on every successful pop, which
// is what defeats ABA on the next pointer.
func (z *lfrcReclaimer) pop() mem.Ref {
	for {
		old := z.head.Load()
		p := mem.Ref(old & 0xFFFF_FFFF)
		if p == 0 {
			return 0
		}
		next := z.env.LinkLoad(p) & 0xFFFF_FFFF
		cnt := (old >> 32) + 1
		if z.fj.Inject(fault.ReclaimDrain) {
			continue
		}
		if z.head.CompareAndSwap(old, cnt<<32|next) {
			z.pending.Add(-1)
			z.obs.Note(obs.KindZombieDrain, uint32(p), 0)
			return p
		}
	}
}
