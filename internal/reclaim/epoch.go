package reclaim

import (
	"sync/atomic"

	"lfrc/internal/fault"
	"lfrc/internal/mem"
	"lfrc/internal/obs"
)

// DefaultEpochEvery is how many retirements the epoch backend batches
// between automatic epoch advances when WithEpochEvery does not say
// otherwise. Small enough that the limbo backlog stays shallow under steady
// traffic, large enough that frees amortize into batches.
const DefaultEpochEvery = 64

// epochReclaimer is the epoch-based (EBR-style) backend: a retired object is
// never freed inline. Its reference-count edges are released immediately —
// Retire runs the destroy recursion, parking every object it visits as an
// edge-free husk — but the husk's memory is pushed onto the limbo bin of the
// current epoch, and a bin is flushed only when it is about to be reused:
// two epoch advances after the epoch that filled it, the classic three-bin
// grace discipline of epoch-based reclamation.
//
// Edges must drop at retire time, not free time: a parked object that kept
// its fields would keep its whole subgraph's counts up, and on chain-shaped
// structures one parked node transitively pins everything behind it (the F1
// pinning pathology — the Michael–Scott queue's dequeued head points at the
// next node, which points at the next...), growing the limbo backlog without
// bound. Releasing eagerly is safe because a count-zero object is already
// provably unreachable under the LFRC invariants.
//
// Under LFRC the grace period buys nothing for safety (DCAS closed the §5
// window), which is exactly what makes this backend a clean experiment: same
// structures, same invariants, different deferral policy. What it does buy
// is batching — frees happen epochEvery at a time, off the retiring
// operation's critical path — at the price of a standing limbo backlog of up
// to three bins.
//
// Each bin is a Treiber stack linked through the parked objects' link
// words, its head packing a 32-bit pop counter with the 32-bit object
// address (the same cnt<<32|ref encoding as the lfrc backend's zombie
// stack, defeating ABA on pops).
type epochReclaimer struct {
	env        Env
	budget     int
	epochEvery int
	obs        *obs.Recorder
	fj         *fault.Injector

	epoch   atomic.Uint64
	bins    [3]limboBin
	pending atomic.Int64

	// sinceAdvance counts retirements toward the next automatic advance.
	sinceAdvance atomic.Int64

	retired  atomic.Int64
	freed    atomic.Int64
	parked   atomic.Int64
	drains   atomic.Int64
	advances atomic.Int64
}

// limboBin is one epoch's deferred-free stack, padded so neighbouring bins
// on concurrent push paths don't false-share.
type limboBin struct {
	head atomic.Uint64
	_    [56]byte
}

func newEpoch(env Env, cfg config) *epochReclaimer {
	every := cfg.epochEvery
	if every < 1 {
		every = DefaultEpochEvery
	}
	return &epochReclaimer{
		env:        env,
		budget:     cfg.budget,
		epochEvery: every,
		obs:        cfg.obs,
		fj:         cfg.fj,
	}
}

// Name implements Reclaimer.
func (z *epochReclaimer) Name() string { return KindEpoch.String() }

// Retire implements Reclaimer: root and each object on more are released
// depth-first — every object visited drops its child edges (pushing the
// children that die onto the walk's chain) and parks as a husk in the
// current epoch's limbo bin — and every epochEvery parks the epoch advances
// and the expired bin is flushed (bounded by the incremental-destroy budget
// when one is set).
func (z *epochReclaimer) Retire(root, more mem.Ref) {
	n := int64(1)
	if more != 0 {
		n = roots(z.env, more)
	}
	z.retired.Add(n)
	parked := int64(0)
	for p, chain := root, more; p != 0; parked++ {
		chain = z.env.ReleaseChildren(p, chain)
		q := p
		if p, chain = pop(z.env, chain); p == q {
			// Only a self-edge under corrupted counts pushes an object
			// onto its own walk; parking it twice would link its bin
			// through it twice, and the flush would free it twice.
			p, chain = pop(z.env, chain)
		}
		z.park(q)
	}
	if z.sinceAdvance.Add(parked) >= int64(z.epochEvery) {
		z.sinceAdvance.Store(0)
		z.freed.Add(int64(z.advance(z.budget)))
	}
}

// Drain implements Reclaimer: it forces epoch advances, flushing expired
// bins until max objects are freed (0 = until the limbo backlog is empty).
// Each advance lets one bin's contents reach the expired position, so a
// full drain takes up to three advances per bin generation; the loop stops
// once consecutive advances stop producing frees.
func (z *epochReclaimer) Drain(max int) int {
	z.drains.Add(1)
	freed, idle := 0, 0
	for (max <= 0 || freed < max) && z.pending.Load() > 0 {
		budget := 0
		if max > 0 {
			budget = max - freed
		}
		n := z.advance(budget)
		freed += n
		if n == 0 {
			// Three empty advances cycle every bin through the
			// expired position; a fourth means the backlog is out
			// of reach (e.g. an injected advance failure).
			if idle++; idle > 3 {
				break
			}
		} else {
			idle = 0
		}
	}
	z.freed.Add(int64(freed))
	return freed
}

// Pending implements Reclaimer.
func (z *epochReclaimer) Pending() int64 { return z.pending.Load() }

// Stats implements Reclaimer.
func (z *epochReclaimer) Stats() Stats {
	return Stats{
		Backend:       z.Name(),
		Retired:       z.retired.Load(),
		Freed:         z.freed.Load(),
		Parked:        z.parked.Load(),
		Pending:       z.pending.Load(),
		Drains:        z.drains.Load(),
		Epoch:         z.epoch.Load(),
		EpochAdvances: z.advances.Load(),
	}
}

// Epoch reports the backend's current reclamation epoch.
func (z *epochReclaimer) Epoch() uint64 { return z.epoch.Load() }

// advance ticks the epoch and flushes the bin that thereby expires (the one
// the new epoch will fill next, whose contents are at least two advances
// old), freeing at most budget objects (0 = all). Losing the epoch CAS
// means another goroutine advanced concurrently; the loser does not retry —
// one tick per trigger is the intended rate — but still helps flush, so a
// budget-bounded leftover cannot outlive its bin's next turn.
func (z *epochReclaimer) advance(budget int) int {
	e := z.epoch.Load()
	if z.fj.Inject(fault.ReclaimEpoch) {
		return 0
	}
	if z.epoch.CompareAndSwap(e, e+1) {
		z.advances.Add(1)
	}
	return z.flush(&z.bins[(e+1)%3], budget)
}

// flush pops every object out of bin and frees it until the bin is empty or
// budget objects have been freed. Parked objects are edge-free husks (Retire
// released their children), so flushing is pure memory return — no cascade
// can start here. A budget-cut leftover stays in its bin and is reached
// again the next time the bin expires.
func (z *epochReclaimer) flush(bin *limboBin, budget int) int {
	freed := 0
	for budget <= 0 || freed < budget {
		p := z.popBin(bin)
		if p == 0 {
			break
		}
		z.env.FreeObject(p)
		freed++
	}
	return freed
}

// park pushes a dead object onto the current epoch's limbo bin.
func (z *epochReclaimer) park(p mem.Ref) {
	bin := &z.bins[z.epoch.Load()%3]
	for {
		old := bin.head.Load()
		z.env.LinkStore(p, link(mem.Ref(old&0xFFFF_FFFF)))
		if z.fj.Inject(fault.ReclaimPush) {
			continue
		}
		if bin.head.CompareAndSwap(old, old&^uint64(0xFFFF_FFFF)|uint64(p)) {
			z.pending.Add(1)
			z.parked.Add(1)
			z.obs.Note(obs.KindZombiePush, uint32(p), 0)
			return
		}
	}
}

// popBin removes one object from bin, or returns 0 if it is empty.
func (z *epochReclaimer) popBin(bin *limboBin) mem.Ref {
	for {
		old := bin.head.Load()
		p := mem.Ref(old & 0xFFFF_FFFF)
		if p == 0 {
			return 0
		}
		next := z.env.LinkLoad(p) & 0xFFFF_FFFF
		cnt := (old >> 32) + 1
		if z.fj.Inject(fault.ReclaimDrain) {
			continue
		}
		if bin.head.CompareAndSwap(old, cnt<<32|next) {
			z.pending.Add(-1)
			z.obs.Note(obs.KindZombieDrain, uint32(p), 0)
			return p
		}
	}
}
