package reclaim

import (
	"runtime"
	"sync/atomic"

	"lfrc/internal/fault"
	"lfrc/internal/mem"
	"lfrc/internal/obs"
	"lfrc/internal/stripe"
)

// Reclaimer destroys count-zero objects eagerly, except that a positive
// budget caps the reclamation work done by any single Retire call (the
// paper's §7 incremental collection of large structures) and parks the
// remainder on a zombie stack. It is safe for concurrent use: Retire is
// called from every releasing goroutine, and Drain may run concurrently
// with Retire (the degraded-mode drain path does exactly that).
//
// The zombie stack is a Treiber stack linked through each parked object's
// link word; the head packs a 32-bit pop counter with the 32-bit object
// address (cnt<<32 | ref) so a pop that raced with a push-pop-push of the
// same object cannot succeed on a stale next pointer (ABA).
type Reclaimer struct {
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

// retireStripe is one stripe of the per-free accounting, padded to a cache
// line.
type retireStripe struct {
	retired atomic.Int64
	freed   atomic.Int64
	_       [48]byte
}

// New builds a Reclaimer over env.
func New(env Env, opts ...Option) *Reclaimer {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return &Reclaimer{env: env, budget: cfg.budget, obs: cfg.obs, fj: cfg.fj,
		counts: make([]retireStripe, stripe.Clamp(0, runtime.GOMAXPROCS(0)))}
}

// Retire hands over root and the 0-terminated chain more (threaded through
// the link words, as ReleaseChildren builds it) of further objects whose
// reference count reached zero. It frees them (and any descendants that hit
// zero) immediately, up to the incremental-destroy budget for the whole
// call; excess objects park on the zombie stack for a later Drain. A single
// death passes more = 0 and writes no link word. It looks up the caller's P
// once, however many objects it frees.
func (z *Reclaimer) Retire(root, more mem.Ref) {
	n := int64(1)
	if more != 0 {
		n = roots(z.env, more)
	}
	proc := stripe.ID()
	st := &z.counts[stripe.Of(proc, len(z.counts))]
	st.retired.Add(n)
	st.freed.Add(int64(z.freeDFS(root, more, z.budget, proc)))
}

// Drain reclaims up to max parked objects (and their newly dead
// descendants), returning the number actually freed. A max of 0 drains
// everything.
func (z *Reclaimer) Drain(max int) int {
	z.drains.Add(1)
	proc := stripe.ID()
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
		processed += z.freeDFS(p, 0, budget, proc)
	}
	z.counts[stripe.Of(proc, len(z.counts))].freed.Add(int64(processed))
	return processed
}

// Pending reports the number of objects parked on the zombie stack.
func (z *Reclaimer) Pending() int64 { return z.pending.Load() }

// Stats snapshots the Reclaimer's accounting.
func (z *Reclaimer) Stats() Stats {
	s := Stats{
		Backend: Name,
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

// freeDFS frees p, every object on chain and any descendant whose count
// drops to zero while doing so, depth-first: ReleaseChildren pushes the
// newly dead onto the chain, so the chain is the DFS stack and no Go memory
// is allocated. With a positive budget it frees at most budget objects and
// parks the rest on the zombie stack, children intact; with budget 0 it
// frees everything. It returns the number of objects freed. proc is the
// caller's P id, handed to the Env with every object.
//
// This is the paper's LFRCDestroy recursion (Figure 2, lines 13–15) with
// the §7 budget cut-off.
func (z *Reclaimer) freeDFS(p, chain mem.Ref, budget, proc int) int {
	freed := 0
	for p != 0 {
		if budget > 0 && freed >= budget {
			for p != 0 {
				q := p
				p, chain = pop(z.env, chain)
				z.push(q)
			}
			return freed
		}
		chain = z.env.ReleaseChildren(p, chain, proc)
		z.env.FreeObject(p, proc)
		freed++
		p, chain = pop(z.env, chain)
	}
	return freed
}

// push parks a dead object (count already zero) on the zombie stack,
// linking through its link word.
func (z *Reclaimer) push(p mem.Ref) {
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
func (z *Reclaimer) pop() mem.Ref {
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
