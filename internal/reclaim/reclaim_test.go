package reclaim

import (
	"sync"
	"testing"
	"time"

	"lfrc/internal/fault"
	"lfrc/internal/mem"
)

// fakeEnv is a toy object graph implementing Env: objects have children with
// toy reference counts, a link word, and a freed flag. It is mutex-protected
// so concurrent backend paths can run under -race.
type fakeEnv struct {
	mu        sync.Mutex
	rc        map[mem.Ref]int
	children  map[mem.Ref][]mem.Ref
	links     map[mem.Ref]uint64
	freed     map[mem.Ref]bool
	freeOrder []mem.Ref
	doubles   int

	// afterRelease, when set, runs under mu at the end of every
	// ReleaseChildren call: tests corrupt counts from it the way a naive
	// load's stray increment does.
	afterRelease func(p mem.Ref)
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		rc:       make(map[mem.Ref]int),
		children: make(map[mem.Ref][]mem.Ref),
		links:    make(map[mem.Ref]uint64),
		freed:    make(map[mem.Ref]bool),
	}
}

// add registers an object with the given reference count and children.
func (e *fakeEnv) add(p mem.Ref, rc int, children ...mem.Ref) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rc[p] = rc
	e.children[p] = children
}

func (e *fakeEnv) ReleaseChildren(p, chain mem.Ref) mem.Ref {
	e.mu.Lock()
	var dead []mem.Ref
	for _, c := range e.children[p] {
		e.rc[c]--
		if e.rc[c] == 0 {
			dead = append(dead, c)
		}
	}
	// Mirror the real Env: releasing also nulls the fields, so a second
	// call on the same object releases nothing.
	e.children[p] = nil
	if e.afterRelease != nil {
		e.afterRelease(p)
	}
	e.mu.Unlock()
	for _, c := range dead {
		chain = Push(e, chain, c)
	}
	return chain
}

func (e *fakeEnv) FreeObject(p mem.Ref) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.freed[p] {
		e.doubles++
		return
	}
	e.freed[p] = true
	e.freeOrder = append(e.freeOrder, p)
	// The heap reuses the link word for its free list, without the mark.
	e.links[p] = 0
}

func (e *fakeEnv) LinkLoad(p mem.Ref) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.links[p]
}

func (e *fakeEnv) LinkStore(p mem.Ref, v uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.links[p] = v
}

// retire hands refs to r in one Retire call: refs[0] as the root and the
// rest as the chain more, threaded so the walk meets them in order.
func (e *fakeEnv) retire(r Reclaimer, refs ...mem.Ref) {
	var more mem.Ref
	for i := len(refs) - 1; i > 0; i-- {
		more = Push(e, more, refs[i])
	}
	r.Retire(refs[0], more)
}

func (e *fakeEnv) freeCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.freeOrder)
}

func (e *fakeEnv) isFreed(p mem.Ref) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.freed[p]
}

// kinds runs a subtest per backend kind, the "green under both backends"
// harness the satellite checklist asks for.
func kinds(t *testing.T, fn func(t *testing.T, k Kind)) {
	t.Helper()
	for _, k := range []Kind{KindLFRC, KindEpoch} {
		t.Run(k.String(), func(t *testing.T) { fn(t, k) })
	}
}

// settle forces any deferred work to completion so both backends can be
// checked against the same end state.
func settle(t *testing.T, r Reclaimer) {
	t.Helper()
	r.Drain(0)
	if p := r.Pending(); p != 0 {
		t.Fatalf("%s: pending = %d after full drain, want 0", r.Name(), p)
	}
}

func TestKindString(t *testing.T) {
	if KindLFRC.String() != "lfrc" || KindEpoch.String() != "epoch" {
		t.Fatalf("kind names: %q, %q", KindLFRC, KindEpoch)
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Fatalf("unknown kind name = %q", got)
	}
}

func TestNewFallsBackToLFRC(t *testing.T) {
	r := New(Kind(0), newFakeEnv())
	if r.Name() != "lfrc" {
		t.Fatalf("unknown kind built %q, want lfrc fallback", r.Name())
	}
}

// TestRetireFreesEverything: with no budget, every retired object (and every
// descendant that hits zero) is freed by retire+settle, exactly once.
func TestRetireFreesEverything(t *testing.T) {
	kinds(t, func(t *testing.T, k Kind) {
		env := newFakeEnv()
		// 10 → 11 → 12 chain, each child held only by its parent.
		env.add(10, 0, 11)
		env.add(11, 1, 12)
		env.add(12, 1)
		r := New(k, env)
		r.Retire(10, 0)
		settle(t, r)
		for _, p := range []mem.Ref{10, 11, 12} {
			if !env.isFreed(p) {
				t.Fatalf("ref %d not freed", p)
			}
		}
		if env.doubles != 0 {
			t.Fatalf("%d double frees", env.doubles)
		}
		s := r.Stats()
		if s.Retired != 1 || s.Freed != 3 {
			t.Fatalf("stats = %+v, want retired 1 freed 3", s)
		}
		if s.Backend != k.String() {
			t.Fatalf("stats backend = %q, want %q", s.Backend, k)
		}
	})
}

// TestSharedChildFreedOnce: a child held by two retired parents is freed
// exactly once, when the second parent releases it.
func TestSharedChildFreedOnce(t *testing.T) {
	kinds(t, func(t *testing.T, k Kind) {
		env := newFakeEnv()
		env.add(10, 0, 30)
		env.add(20, 0, 30)
		env.add(30, 2)
		r := New(k, env)
		env.retire(r, 10, 20)
		settle(t, r)
		if !env.isFreed(30) {
			t.Fatal("shared child not freed")
		}
		if env.doubles != 0 {
			t.Fatalf("%d double frees", env.doubles)
		}
		if got := env.freeCount(); got != 3 {
			t.Fatalf("freed %d objects, want 3", got)
		}
	})
}

// TestEpochReleasesEdgesAtRetire: the epoch backend must drop an object's
// edges when it parks, not when it frees — a parked object that kept its
// fields would hold its successor's count up for a whole grace period, and
// on chain-shaped structures (an MS-queue's dequeued head → next → next...)
// one parked node would transitively pin everything behind it in limbo.
func TestEpochReleasesEdgesAtRetire(t *testing.T) {
	env := newFakeEnv()
	env.add(10, 0, 11)
	env.add(11, 1)
	// epochEvery large enough that nothing auto-advances.
	r := New(KindEpoch, env, WithEpochEvery(1000))
	r.Retire(10, 0)
	if env.freeCount() != 0 {
		t.Fatal("epoch backend freed inline")
	}
	env.mu.Lock()
	childRC := env.rc[11]
	env.mu.Unlock()
	if childRC != 0 {
		t.Fatalf("child rc = %d after retire, want 0 (edges released at park time)", childRC)
	}
	if p := r.Pending(); p != 2 {
		t.Fatalf("pending = %d, want 2 (parent and child both parked as husks)", p)
	}
	settle(t, r)
	if !env.isFreed(10) || !env.isFreed(11) {
		t.Fatal("husks not freed after drain")
	}
}

// TestLFRCParkedZombieKeepsChildren: the lfrc backend is the paper's §7
// incremental destroy — a budget-parked zombie's fields stay intact, and its
// children are released only when its destruction resumes at free time.
func TestLFRCParkedZombieKeepsChildren(t *testing.T) {
	env := newFakeEnv()
	env.add(10, 0)
	env.add(20, 0, 21)
	env.add(21, 1)
	r := New(KindLFRC, env, WithBudget(1))
	env.retire(r, 10, 20) // frees 10 (budget), parks 20 with 21 intact
	if got := env.freeCount(); got != 1 {
		t.Fatalf("freed %d inline, want budget 1", got)
	}
	env.mu.Lock()
	childRC := env.rc[21]
	env.mu.Unlock()
	if childRC != 1 {
		t.Fatalf("parked zombie's child rc = %d, want 1 (release deferred to free time)", childRC)
	}
	settle(t, r)
	if !env.isFreed(20) || !env.isFreed(21) {
		t.Fatal("zombie or its child not freed after drain")
	}
}

// TestBudgetParksRemainder: the lfrc backend frees at most budget objects per
// Retire and parks the rest; Drain finishes the job.
func TestBudgetParksRemainder(t *testing.T) {
	env := newFakeEnv()
	for p := mem.Ref(10); p < 15; p++ {
		env.add(p, 0)
	}
	r := New(KindLFRC, env, WithBudget(2))
	env.retire(r, 10, 11, 12, 13, 14)
	if got := env.freeCount(); got != 2 {
		t.Fatalf("freed %d inline, want budget 2", got)
	}
	if p := r.Pending(); p != 3 {
		t.Fatalf("pending = %d, want 3", p)
	}
	if s := r.Stats(); s.Parked != 3 {
		t.Fatalf("parked = %d, want 3", s.Parked)
	}
	settle(t, r)
	if got := env.freeCount(); got != 5 {
		t.Fatalf("freed %d total, want 5", got)
	}
}

// TestDrainBounded: Drain(max) frees at most max objects and leaves the rest
// pending.
func TestDrainBounded(t *testing.T) {
	kinds(t, func(t *testing.T, k Kind) {
		env := newFakeEnv()
		var roots []mem.Ref
		for p := mem.Ref(10); p < 20; p++ {
			env.add(p, 0)
			roots = append(roots, p)
		}
		var r Reclaimer
		if k == KindLFRC {
			// Budget 0 would free eagerly; park everything with a
			// tiny budget spread across many Retire calls.
			r = New(k, env, WithBudget(1))
			env.retire(r, roots...)
			// 1 freed inline, 9 parked.
		} else {
			r = New(k, env, WithEpochEvery(1000))
			env.retire(r, roots...)
		}
		before := env.freeCount()
		n := r.Drain(4)
		if n > 4 {
			t.Fatalf("Drain(4) freed %d", n)
		}
		if got := env.freeCount() - before; got != n {
			t.Fatalf("Drain reported %d, env saw %d", n, got)
		}
		settle(t, r)
		if got := env.freeCount(); got != 10 {
			t.Fatalf("freed %d total, want 10", got)
		}
	})
}

// TestEpochGraceDiscipline: a retired object waits out the three-bin grace
// cycle — it is not freed by the advance that merely follows its epoch, only
// once its bin reaches the expired position.
func TestEpochGraceDiscipline(t *testing.T) {
	env := newFakeEnv()
	env.add(10, 0)
	r := New(KindEpoch, env, WithEpochEvery(1000)).(*epochReclaimer)
	r.Retire(10, 0)                // parks in bin epoch%3 = bin 0
	if n := r.advance(0); n != 0 { // epoch 0→1, flushes bin 1 (empty)
		t.Fatalf("first advance freed %d, want 0", n)
	}
	if n := r.advance(0); n != 0 { // epoch 1→2, flushes bin 2 (empty)
		t.Fatalf("second advance freed %d, want 0", n)
	}
	if env.isFreed(10) {
		t.Fatal("object freed before its bin expired")
	}
	if n := r.advance(0); n != 1 { // flushes bin 0, two advances after fill
		t.Fatalf("third advance freed %d, want 1", n)
	}
	if !env.isFreed(10) {
		t.Fatal("object not freed once its bin expired")
	}
}

// TestEpochAutoAdvance: steady retirement traffic advances the epoch on its
// own every epochEvery retirements, so old bins flush without Drain.
func TestEpochAutoAdvance(t *testing.T) {
	env := newFakeEnv()
	r := New(KindEpoch, env, WithEpochEvery(4))
	for p := mem.Ref(10); p < 34; p++ {
		env.add(p, 0)
		r.Retire(p, 0)
	}
	// 24 retirements at epochEvery=4 → 6 advances; bins filled in early
	// epochs have long expired.
	if got := env.freeCount(); got == 0 {
		t.Fatal("no frees from automatic epoch advances")
	}
	s := r.Stats()
	if s.EpochAdvances == 0 || s.Epoch == 0 {
		t.Fatalf("stats = %+v, want nonzero epoch progress", s)
	}
	settle(t, r)
	if got := env.freeCount(); got != 24 {
		t.Fatalf("freed %d total, want 24", got)
	}
}

// TestCounterPackingWraparound: the deferral stacks pack a 32-bit pop counter
// above the 32-bit object address (cnt<<32 | ref). Seed the counter at the
// top of its range and check pops still return the right objects while the
// counter wraps to zero instead of spilling into the address half.
func TestCounterPackingWraparound(t *testing.T) {
	kinds(t, func(t *testing.T, k Kind) {
		env := newFakeEnv()
		for p := mem.Ref(10); p < 13; p++ {
			env.add(p, 0)
		}
		var head *uint64head
		var pop func() mem.Ref
		switch k {
		case KindLFRC:
			z := New(k, env, WithBudget(1)).(*lfrcReclaimer)
			// budget 1: the walk frees the root 10 inline, then parks 11
			// and 12 in chain order, leaving 12 on top.
			env.retire(z, 10, 11, 12)
			head = &uint64head{load: z.head.Load, store: z.head.Store}
			pop = z.pop
		case KindEpoch:
			z := New(k, env, WithEpochEvery(1000)).(*epochReclaimer)
			env.retire(z, 11, 12)
			bin := &z.bins[z.epoch.Load()%3]
			head = &uint64head{load: bin.head.Load, store: bin.head.Store}
			pop = func() mem.Ref { return z.popBin(bin) }
		}

		// Seed the pop counter one below the 32-bit boundary.
		old := head.load()
		if ref := old & 0xFFFF_FFFF; ref != 12 {
			t.Fatalf("head ref = %d, want 12 (LIFO)", ref)
		}
		head.store(uint64(0xFFFF_FFFF)<<32 | old&0xFFFF_FFFF)

		// First pop increments the counter off 0xFFFF_FFFF: it must wrap
		// to 0 in the high half, leaving the address half intact.
		if p := pop(); p != 12 {
			t.Fatalf("pop = %d, want 12", p)
		}
		after := head.load()
		if cnt := after >> 32; cnt != 0 {
			t.Fatalf("counter after wraparound pop = %#x, want 0", cnt)
		}
		if ref := after & 0xFFFF_FFFF; ref != 11 {
			t.Fatalf("head ref after pop = %d, want 11", ref)
		}

		// Next pop continues normally from the wrapped counter.
		if p := pop(); p != 11 {
			t.Fatalf("pop = %d, want 11", p)
		}
		if cnt := head.load() >> 32; cnt != 1 {
			t.Fatalf("counter = %#x, want 1", head.load()>>32)
		}
		if p := pop(); p != 0 {
			t.Fatalf("pop on empty = %d, want 0", p)
		}
	})
}

// uint64head adapts either backend's stack head for the wraparound test.
type uint64head struct {
	load  func() uint64
	store func(uint64)
}

// TestCounterPackingLargeRef: a ref with all 32 low bits in play must survive
// the packing round-trip next to a saturated counter.
func TestCounterPackingLargeRef(t *testing.T) {
	env := newFakeEnv()
	const big = mem.Ref(0xFFFF_FFF0)
	env.add(big, 0)
	z := New(KindLFRC, env, WithBudget(1)).(*lfrcReclaimer)
	env.add(1, 0)
	env.retire(z, 1, big) // frees 1 (budget), parks big
	z.head.Store(uint64(0xFFFF_FFFF)<<32 | z.head.Load()&0xFFFF_FFFF)
	if p := z.pop(); p != big {
		t.Fatalf("pop = %#x, want %#x", p, big)
	}
	if h := z.head.Load(); h != 0 {
		t.Fatalf("head = %#x after last pop, want 0 (wrapped counter, null ref)", h)
	}
}

// TestFaultInjectionRetries: armed reclaim.* points force the park/pop CAS
// loops around extra laps without corrupting the outcome.
func TestFaultInjectionRetries(t *testing.T) {
	kinds(t, func(t *testing.T, k Kind) {
		pl, err := fault.Parse("reclaim.push:nth=1;reclaim.drain:nth=1")
		if err != nil {
			t.Fatal(err)
		}
		env := newFakeEnv()
		var roots []mem.Ref
		for p := mem.Ref(10); p < 15; p++ {
			env.add(p, 0)
			roots = append(roots, p)
		}
		opts := []Option{WithFault(fault.NewInjector(pl, 1))}
		if k == KindLFRC {
			opts = append(opts, WithBudget(1))
		} else {
			opts = append(opts, WithEpochEvery(1000))
		}
		r := New(k, env, opts...)
		env.retire(r, roots...)
		settle(t, r)
		if got := env.freeCount(); got != 5 {
			t.Fatalf("freed %d, want 5", got)
		}
		if env.doubles != 0 {
			t.Fatalf("%d double frees", env.doubles)
		}
	})
}

// TestEpochAdvanceFaultTerminates: with reclaim.epoch firing on every
// attempt, advances never tick and Drain must give up instead of spinning.
func TestEpochAdvanceFaultTerminates(t *testing.T) {
	pl, err := fault.Parse("reclaim.epoch:p=1")
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv()
	env.add(10, 0)
	r := New(KindEpoch, env, WithEpochEvery(1000), WithFault(fault.NewInjector(pl, 1)))
	r.Retire(10, 0)
	if n := r.Drain(0); n != 0 {
		t.Fatalf("Drain freed %d with advance disabled, want 0", n)
	}
	if p := r.Pending(); p != 1 {
		t.Fatalf("pending = %d, want 1 (stuck in limbo)", p)
	}
}

// TestConcurrentRetireDrain: hammer Retire and Drain from many goroutines;
// -race plus the fake env's double-free detector do the checking.
func TestConcurrentRetireDrain(t *testing.T) {
	kinds(t, func(t *testing.T, k Kind) {
		env := newFakeEnv()
		const goroutines, each = 4, 200
		for g := 0; g < goroutines; g++ {
			for i := 0; i < each; i++ {
				env.add(mem.Ref(1000+g*each+i), 0)
			}
		}
		var opts []Option
		if k == KindLFRC {
			opts = append(opts, WithBudget(1))
		} else {
			opts = append(opts, WithEpochEvery(16))
		}
		r := New(k, env, opts...)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					r.Retire(mem.Ref(1000+g*each+i), 0)
					if i%32 == 0 {
						r.Drain(8)
					}
				}
			}(g)
		}
		wg.Wait()
		settle(t, r)
		if got := env.freeCount(); got != goroutines*each {
			t.Fatalf("freed %d, want %d", got, goroutines*each)
		}
		if env.doubles != 0 {
			t.Fatalf("%d double frees", env.doubles)
		}
		s := r.Stats()
		if s.Retired != goroutines*each || s.Freed != int64(goroutines*each) {
			t.Fatalf("stats = %+v", s)
		}
	})
}

// finishes runs fn and fails the test if it does not return promptly: a
// walk that loops on a corrupted chain never would.
func finishes(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("walk did not terminate")
	}
}

// TestDoublyRetiredObjectOnChain: a corrupted count (a naive load's stray
// increment between two decrements) drives child 30 to zero twice while it
// is still on the walk's chain. The second push must be refused — threading
// 30 again would link it to itself — so the walk ends, freeing each object
// once.
func TestDoublyRetiredObjectOnChain(t *testing.T) {
	kinds(t, func(t *testing.T, k Kind) {
		env := newFakeEnv()
		env.add(10, 0, 30, 20) // 30 is pushed first, 20 lands above it
		env.add(20, 1, 30)
		env.add(30, 1)
		env.afterRelease = func(p mem.Ref) {
			if p == 10 {
				env.rc[30] = 1 // the stray increment
			}
		}
		r := New(k, env, WithEpochEvery(1000))
		finishes(t, func() {
			r.Retire(10, 0)
			settle(t, r)
		})
		if got := env.freeCount(); got != 3 {
			t.Fatalf("freed %d objects, want 3", got)
		}
		if env.doubles != 0 {
			t.Fatalf("%d double frees", env.doubles)
		}
	})
}

// TestDoublyRetiredObjectAfterFree: child 30 reaches zero a second time
// after the lfrc walk already freed it. The walk pushes it again, meets it
// once more, and the heap rejects the second free; the walk still
// terminates. The epoch walk still holds 30 in limbo at that point, its
// link word marked, so it refuses the second retirement outright.
func TestDoublyRetiredObjectAfterFree(t *testing.T) {
	kinds(t, func(t *testing.T, k Kind) {
		env := newFakeEnv()
		env.add(10, 0, 30)
		env.add(20, 0, 30)
		env.add(30, 1)
		env.afterRelease = func(p mem.Ref) {
			if p == 30 {
				env.rc[30] = 1 // the stray increment, after 30 died
			}
		}
		r := New(k, env, WithEpochEvery(1000))
		finishes(t, func() {
			env.retire(r, 10, 20)
			settle(t, r)
		})
		if got := env.freeCount(); got != 3 {
			t.Fatalf("freed %d objects, want 3", got)
		}
		want := 0
		if k == KindLFRC {
			want = 1
		}
		if env.doubles != want {
			t.Fatalf("%d double frees, want %d", env.doubles, want)
		}
	})
}

// TestMultiRootRetireOneBudget: one Retire carrying several roots gets one
// budget for the whole call, cascades included, and parks the leftovers.
func TestMultiRootRetireOneBudget(t *testing.T) {
	env := newFakeEnv()
	env.add(10, 0, 11)
	env.add(11, 1)
	env.add(20, 0)
	env.add(30, 0)
	r := New(KindLFRC, env, WithBudget(2))
	env.retire(r, 10, 20, 30) // frees 10 and its child 11, parks 20 and 30
	if got := env.freeCount(); got != 2 {
		t.Fatalf("freed %d inline, want budget 2", got)
	}
	if !env.isFreed(10) || !env.isFreed(11) {
		t.Fatal("root or its cascaded child not freed first")
	}
	if p := r.Pending(); p != 2 {
		t.Fatalf("pending = %d, want 2", p)
	}
	settle(t, r)
	if got := env.freeCount(); got != 4 {
		t.Fatalf("freed %d total, want 4", got)
	}
}

// TestRetiredCountsRoots: Stats.Retired counts the roots one Retire hands
// over (root plus chain), not the descendants the walk frees with them.
func TestRetiredCountsRoots(t *testing.T) {
	kinds(t, func(t *testing.T, k Kind) {
		env := newFakeEnv()
		env.add(10, 0, 11)
		env.add(11, 1)
		env.add(20, 0)
		env.add(30, 0, 31)
		env.add(31, 1)
		r := New(k, env, WithEpochEvery(1000))
		env.retire(r, 10, 20, 30)
		settle(t, r)
		if s := r.Stats(); s.Retired != 3 || s.Freed != 5 {
			t.Fatalf("stats = %+v, want retired 3 freed 5", s)
		}
	})
}

// TestSelfEdgeUnderCorruptCount: a root whose own field points at it, with
// a count corrupted down to the self-edge alone, pushes itself onto its own
// walk when it releases that edge. The walk must still visit it once: on
// the epoch backend, parking it twice would link its limbo bin through it
// twice, and the flush would free it twice.
func TestSelfEdgeUnderCorruptCount(t *testing.T) {
	kinds(t, func(t *testing.T, k Kind) {
		env := newFakeEnv()
		env.add(10, 1, 10)
		r := New(k, env, WithEpochEvery(1000))
		finishes(t, func() {
			r.Retire(10, 0)
			settle(t, r)
		})
		if !env.isFreed(10) || env.doubles != 0 {
			t.Fatalf("freed %v with %d double frees, want one free", env.isFreed(10), env.doubles)
		}
	})
}
