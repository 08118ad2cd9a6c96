package reclaim

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"lfrc/internal/fault"
	"lfrc/internal/mem"
)

// fakeEnv is a toy object graph implementing Env: objects have children with
// toy reference counts, a link word, and a freed flag. It is mutex-protected
// so concurrent Retire and Drain paths can run under -race.
type fakeEnv struct {
	mu        sync.Mutex
	rc        map[mem.Ref]int
	children  map[mem.Ref][]mem.Ref
	links     map[mem.Ref]uint64
	freed     map[mem.Ref]bool
	freeOrder []mem.Ref
	doubles   int

	// procs records the P id handed to every ReleaseChildren and
	// FreeObject call, in call order.
	procs []int

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

func (e *fakeEnv) ReleaseChildren(p, chain mem.Ref, proc int) mem.Ref {
	e.mu.Lock()
	e.procs = append(e.procs, proc)
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

func (e *fakeEnv) FreeObject(p mem.Ref, proc int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.procs = append(e.procs, proc)
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
func (e *fakeEnv) retire(r *Reclaimer, refs ...mem.Ref) {
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

// backend runs fn as one subtest named after the reclaimer, Name. The
// checks of the backend's contract (every retired object freed exactly once,
// bounded drains, fault retries, concurrent retire/drain) run under it; the
// checks of the §7 budget's own mechanics run bare.
func backend(t *testing.T, fn func(t *testing.T)) {
	t.Run(Name, fn)
}

// settle drains the zombie stack and checks nothing stays parked.
func settle(t *testing.T, r *Reclaimer) {
	t.Helper()
	r.Drain(0)
	if p := r.Pending(); p != 0 {
		t.Fatalf("pending = %d after full drain, want 0", p)
	}
}

// TestRetireFreesEverything: with no budget, every retired object (and every
// descendant that hits zero) is freed by retire+settle, exactly once.
func TestRetireFreesEverything(t *testing.T) {
	backend(t, func(t *testing.T) {
		env := newFakeEnv()
		// 10 → 11 → 12 chain, each child held only by its parent.
		env.add(10, 0, 11)
		env.add(11, 1, 12)
		env.add(12, 1)
		r := New(env)
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
		if s.Backend != Name {
			t.Fatalf("stats backend = %q, want %q", s.Backend, Name)
		}
	})
}

// TestSharedChildFreedOnce: a child held by two retired parents is freed
// exactly once, when the second parent releases it.
func TestSharedChildFreedOnce(t *testing.T) {
	backend(t, func(t *testing.T) {
		env := newFakeEnv()
		env.add(10, 0, 30)
		env.add(20, 0, 30)
		env.add(30, 2)
		r := New(env)
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

// TestLFRCParkedZombieKeepsChildren: the budget is the paper's §7
// incremental destroy — a budget-parked zombie's fields stay intact, and its
// children are released only when its destruction resumes at free time.
func TestLFRCParkedZombieKeepsChildren(t *testing.T) {
	env := newFakeEnv()
	env.add(10, 0)
	env.add(20, 0, 21)
	env.add(21, 1)
	r := New(env, WithBudget(1))
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

// TestBudgetParksRemainder: the Reclaimer frees at most budget objects per
// Retire and parks the rest; Drain finishes the job.
func TestBudgetParksRemainder(t *testing.T) {
	env := newFakeEnv()
	for p := mem.Ref(10); p < 15; p++ {
		env.add(p, 0)
	}
	r := New(env, WithBudget(2))
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
	backend(t, func(t *testing.T) {
		env := newFakeEnv()
		var roots []mem.Ref
		for p := mem.Ref(10); p < 20; p++ {
			env.add(p, 0)
			roots = append(roots, p)
		}
		// Budget 0 would free eagerly; budget 1 frees 1 inline and parks 9.
		r := New(env, WithBudget(1))
		env.retire(r, roots...)
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

// TestCounterPackingWraparound: the zombie stack packs a 32-bit pop counter
// above the 32-bit object address (cnt<<32 | ref). Seed the counter at the
// top of its range and check pops still return the right objects while the
// counter wraps to zero instead of spilling into the address half.
func TestCounterPackingWraparound(t *testing.T) {
	backend(t, func(t *testing.T) {
		env := newFakeEnv()
		for p := mem.Ref(10); p < 13; p++ {
			env.add(p, 0)
		}
		z := New(env, WithBudget(1))
		// budget 1: the walk frees the root 10 inline, then parks 11 and 12
		// in chain order, leaving 12 on top.
		env.retire(z, 10, 11, 12)

		// Seed the pop counter one below the 32-bit boundary.
		old := z.head.Load()
		if ref := old & 0xFFFF_FFFF; ref != 12 {
			t.Fatalf("head ref = %d, want 12 (LIFO)", ref)
		}
		z.head.Store(uint64(0xFFFF_FFFF)<<32 | old&0xFFFF_FFFF)

		// First pop increments the counter off 0xFFFF_FFFF: it must wrap
		// to 0 in the high half, leaving the address half intact.
		if p := z.pop(); p != 12 {
			t.Fatalf("pop = %d, want 12", p)
		}
		after := z.head.Load()
		if cnt := after >> 32; cnt != 0 {
			t.Fatalf("counter after wraparound pop = %#x, want 0", cnt)
		}
		if ref := after & 0xFFFF_FFFF; ref != 11 {
			t.Fatalf("head ref after pop = %d, want 11", ref)
		}

		// Next pop continues normally from the wrapped counter.
		if p := z.pop(); p != 11 {
			t.Fatalf("pop = %d, want 11", p)
		}
		if cnt := z.head.Load() >> 32; cnt != 1 {
			t.Fatalf("counter = %#x, want 1", cnt)
		}
		if p := z.pop(); p != 0 {
			t.Fatalf("pop on empty = %d, want 0", p)
		}
	})
}

// TestCounterPackingLargeRef: a ref with all 32 low bits in play must survive
// the packing round-trip next to a saturated counter.
func TestCounterPackingLargeRef(t *testing.T) {
	env := newFakeEnv()
	const big = mem.Ref(0xFFFF_FFF0)
	env.add(big, 0)
	z := New(env, WithBudget(1))
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
	backend(t, func(t *testing.T) {
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
		r := New(env, WithBudget(1), WithFault(fault.NewInjector(pl, 1)))
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

// TestConcurrentRetireDrain: hammer Retire and Drain from many goroutines;
// -race plus the fake env's double-free detector do the checking.
func TestConcurrentRetireDrain(t *testing.T) {
	backend(t, func(t *testing.T) {
		env := newFakeEnv()
		const goroutines, each = 4, 200
		for g := 0; g < goroutines; g++ {
			for i := 0; i < each; i++ {
				env.add(mem.Ref(1000+g*each+i), 0)
			}
		}
		r := New(env, WithBudget(1))
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
	backend(t, func(t *testing.T) {
		env := newFakeEnv()
		env.add(10, 0, 30, 20) // 30 is pushed first, 20 lands above it
		env.add(20, 1, 30)
		env.add(30, 1)
		env.afterRelease = func(p mem.Ref) {
			if p == 10 {
				env.rc[30] = 1 // the stray increment
			}
		}
		r := New(env)
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
// terminates.
func TestDoublyRetiredObjectAfterFree(t *testing.T) {
	backend(t, func(t *testing.T) {
		env := newFakeEnv()
		env.add(10, 0, 30)
		env.add(20, 0, 30)
		env.add(30, 1)
		env.afterRelease = func(p mem.Ref) {
			if p == 30 {
				env.rc[30] = 1 // the stray increment, after 30 died
			}
		}
		r := New(env)
		finishes(t, func() {
			env.retire(r, 10, 20)
			settle(t, r)
		})
		if got := env.freeCount(); got != 3 {
			t.Fatalf("freed %d objects, want 3", got)
		}
		if env.doubles != 1 {
			t.Fatalf("%d double frees, want 1", env.doubles)
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
	r := New(env, WithBudget(2))
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
	backend(t, func(t *testing.T) {
		env := newFakeEnv()
		env.add(10, 0, 11)
		env.add(11, 1)
		env.add(20, 0)
		env.add(30, 0, 31)
		env.add(31, 1)
		r := New(env)
		env.retire(r, 10, 20, 30)
		settle(t, r)
		if s := r.Stats(); s.Retired != 3 || s.Freed != 5 {
			t.Fatalf("stats = %+v, want retired 3 freed 5", s)
		}
	})
}

// TestRetireLooksUpOneProc: a Retire or Drain reads its P id once and hands
// the same id to every object it frees, however long the walk, so the Env
// never looks the P up per object. The id is a real P's.
func TestRetireLooksUpOneProc(t *testing.T) {
	backend(t, func(t *testing.T) {
		env := newFakeEnv()
		const n = 200
		for p := mem.Ref(1); p < n; p++ {
			env.add(p, 1, p+1)
		}
		env.add(n, 1)
		env.rc[1] = 0
		r := New(env, WithBudget(n/2))
		check := func(what string, want int) {
			t.Helper()
			env.mu.Lock()
			procs := env.procs
			env.procs = nil
			env.mu.Unlock()
			if len(procs) != 2*want {
				t.Fatalf("%s: %d Env calls, want %d", what, len(procs), 2*want)
			}
			for _, p := range procs {
				if p != procs[0] {
					t.Fatalf("%s: Env calls got P ids %d and %d, want one", what, procs[0], p)
				}
			}
			if procs[0] < 0 || procs[0] >= runtime.GOMAXPROCS(0) {
				t.Fatalf("%s: P id %d outside [0, GOMAXPROCS)", what, procs[0])
			}
		}
		r.Retire(1, 0)
		check("Retire", n/2)
		r.Drain(0)
		check("Drain", n/2)
	})
}

// TestSelfEdgeUnderCorruptCount: a root whose own field points at it, with
// a count corrupted down to the self-edge alone, pushes itself onto its own
// walk when it releases that edge. The walk must still visit it once.
func TestSelfEdgeUnderCorruptCount(t *testing.T) {
	backend(t, func(t *testing.T) {
		env := newFakeEnv()
		env.add(10, 1, 10)
		r := New(env)
		finishes(t, func() {
			r.Retire(10, 0)
			settle(t, r)
		})
		if !env.isFreed(10) || env.doubles != 0 {
			t.Fatalf("freed %v with %d double frees, want one free", env.isFreed(10), env.doubles)
		}
	})
}
