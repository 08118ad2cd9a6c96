package core

import (
	"runtime"
	"sync"
	"testing"

	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

// world bundles a heap, engine and RC plus a couple of registered types.
type world struct {
	h    *mem.Heap
	rc   *RC
	node mem.TypeID // 2 pointer fields + 1 scalar
	cell mem.TypeID // 1 pointer field (a shared pointer variable holder)
}

// worldFactories builds test worlds over each engine.
func worldFactories() map[string]func(t *testing.T, opts ...Option) *world {
	mk := func(engine func(h *mem.Heap) dcas.Engine) func(t *testing.T, opts ...Option) *world {
		return func(t *testing.T, opts ...Option) *world {
			t.Helper()
			h := mem.NewHeap()
			w := &world{
				h:    h,
				rc:   New(h, engine(h), opts...),
				node: h.MustRegisterType(mem.TypeDesc{Name: "node", NumFields: 3, PtrFields: []int{0, 1}}),
				cell: h.MustRegisterType(mem.TypeDesc{Name: "cell", NumFields: 1, PtrFields: []int{0}}),
			}
			return w
		}
	}
	return map[string]func(t *testing.T, opts ...Option) *world{
		"locking": mk(func(h *mem.Heap) dcas.Engine { return dcas.NewLocking(h) }),
		"mcas":    mk(func(h *mem.Heap) dcas.Engine { return dcas.NewMCAS(h) }),
	}
}

// sharedPtr allocates a holder object and returns the address of its single
// pointer field, pinning the holder itself alive.
func (w *world) sharedPtr(t *testing.T) mem.Addr {
	t.Helper()
	holder, err := w.rc.NewObject(w.cell)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	return w.h.FieldAddr(holder, 0)
}

func TestNewObjectStartsAtRCOne(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			p, err := w.rc.NewObject(w.node)
			if err != nil {
				t.Fatalf("NewObject: %v", err)
			}
			if got := w.rc.RCOf(p); got != 1 {
				t.Errorf("fresh rc = %d, want 1", got)
			}
		})
	}
}

func TestDestroyLastReferenceFrees(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			before := w.h.Stats().LiveObjects
			p, _ := w.rc.NewObject(w.node)
			w.rc.Destroy(p)
			if got := w.h.Stats().LiveObjects; got != before {
				t.Errorf("LiveObjects = %d, want %d", got, before)
			}
			if !w.h.IsFreed(p) {
				t.Error("object not freed after last Destroy")
			}
		})
	}
}

func TestDestroyNullIsNoOp(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			w.rc.Destroy(0, 0, 0) // must not panic or count frees
			if got := w.rc.Stats().Frees; got != 0 {
				t.Errorf("Frees = %d, want 0", got)
			}
		})
	}
}

func TestStoreIncrementsAndReleases(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a := w.sharedPtr(t)
			p, _ := w.rc.NewObject(w.node)
			q, _ := w.rc.NewObject(w.node)

			w.rc.Store(a, p)
			if got := w.rc.RCOf(p); got != 2 {
				t.Errorf("after Store, rc(p) = %d, want 2 (local + cell)", got)
			}

			// Overwriting releases the old referent.
			w.rc.Store(a, q)
			if got := w.rc.RCOf(p); got != 1 {
				t.Errorf("after overwrite, rc(p) = %d, want 1", got)
			}
			if got := w.rc.RCOf(q); got != 2 {
				t.Errorf("after overwrite, rc(q) = %d, want 2", got)
			}

			// Storing null releases q's cell reference.
			w.rc.Store(a, 0)
			if got := w.rc.RCOf(q); got != 1 {
				t.Errorf("after null Store, rc(q) = %d, want 1", got)
			}
			w.rc.Destroy(p, q)
		})
	}
}

func TestStoreAllocTransfersReference(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a := w.sharedPtr(t)
			p, _ := w.rc.NewObject(w.node)

			w.rc.StoreAlloc(a, p)
			if got := w.rc.RCOf(p); got != 1 {
				t.Errorf("after StoreAlloc, rc = %d, want 1 (transferred)", got)
			}
			// The cell's reference is the only one; clearing it frees p.
			w.rc.Store(a, 0)
			if !w.h.IsFreed(p) {
				t.Error("object not freed after its only reference was cleared")
			}
		})
	}
}

func TestLoadIncrementsReferent(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a := w.sharedPtr(t)
			p, _ := w.rc.NewObject(w.node)
			w.rc.StoreAlloc(a, p)

			var dst mem.Ref
			w.rc.Load(a, &dst)
			if dst != p {
				t.Fatalf("Load read %d, want %d", dst, p)
			}
			if got := w.rc.RCOf(p); got != 2 {
				t.Errorf("after Load, rc = %d, want 2", got)
			}

			// Loading again into the same variable releases the old
			// value and re-acquires: rc stays 2.
			w.rc.Load(a, &dst)
			if got := w.rc.RCOf(p); got != 2 {
				t.Errorf("after re-Load, rc = %d, want 2", got)
			}
			w.rc.Destroy(dst)
		})
	}
}

func TestLoadNullReleasesOldDest(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a := w.sharedPtr(t) // holds null
			p, _ := w.rc.NewObject(w.node)

			dst := p // dest variable currently references p
			w.rc.Load(a, &dst)
			if dst != 0 {
				t.Fatalf("Load of null cell gave %d, want 0", dst)
			}
			if !w.h.IsFreed(p) {
				t.Error("old dest reference not released by Load")
			}
		})
	}
}

func TestCopySemantics(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			p, _ := w.rc.NewObject(w.node)
			q, _ := w.rc.NewObject(w.node)

			x := p // x owns a reference to p
			w.rc.Copy(&x, q)
			if x != q {
				t.Fatalf("Copy set x = %d, want %d", x, q)
			}
			if !w.h.IsFreed(p) {
				t.Error("Copy did not release the overwritten reference")
			}
			if got := w.rc.RCOf(q); got != 2 {
				t.Errorf("rc(q) = %d, want 2", got)
			}
			w.rc.Destroy(x, q)
		})
	}
}

func TestCASSuccessAndFailureAccounting(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a := w.sharedPtr(t)
			p, _ := w.rc.NewObject(w.node)
			q, _ := w.rc.NewObject(w.node)
			w.rc.StoreAlloc(a, p)

			// Failing CAS must compensate its provisional increment.
			if w.rc.CAS(a, q, q) {
				t.Fatal("CAS with wrong old succeeded")
			}
			if got := w.rc.RCOf(q); got != 1 {
				t.Errorf("after failed CAS, rc(q) = %d, want 1", got)
			}

			// Successful CAS releases the displaced pointer.
			if !w.rc.CAS(a, p, q) {
				t.Fatal("CAS with right old failed")
			}
			if !w.h.IsFreed(p) {
				t.Error("successful CAS did not release the displaced reference")
			}
			if got := w.rc.RCOf(q); got != 2 {
				t.Errorf("after successful CAS, rc(q) = %d, want 2", got)
			}
			w.rc.Destroy(q)
		})
	}
}

func TestDCASSuccessAndFailureAccounting(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a0 := w.sharedPtr(t)
			a1 := w.sharedPtr(t)
			p, _ := w.rc.NewObject(w.node)
			q, _ := w.rc.NewObject(w.node)
			n, _ := w.rc.NewObject(w.node)
			w.rc.StoreAlloc(a0, p)
			w.rc.StoreAlloc(a1, q)

			// Failure: both provisional increments compensated.
			if w.rc.DCAS(a0, a1, p, p /* wrong */, n, n) {
				t.Fatal("DCAS with wrong olds succeeded")
			}
			if got := w.rc.RCOf(n); got != 1 {
				t.Errorf("after failed DCAS, rc(n) = %d, want 1", got)
			}

			// Success: both displaced pointers released, both new
			// pointers counted.
			if !w.rc.DCAS(a0, a1, p, q, n, n) {
				t.Fatal("DCAS with right olds failed")
			}
			if !w.h.IsFreed(p) || !w.h.IsFreed(q) {
				t.Error("successful DCAS did not release displaced references")
			}
			if got := w.rc.RCOf(n); got != 3 {
				t.Errorf("after successful DCAS, rc(n) = %d, want 3 (local + 2 cells)", got)
			}
			w.rc.Destroy(n)
		})
	}
}

func TestDestroyCascadesThroughChain(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			const n = 10_000
			// Build a chain head -> ... -> tail through field 0.
			var head mem.Ref
			for i := 0; i < n; i++ {
				p, err := w.rc.NewObject(w.node)
				if err != nil {
					t.Fatalf("NewObject: %v", err)
				}
				w.rc.StoreAlloc(w.h.FieldAddr(p, 0), head)
				head = p
			}
			if got := w.h.Stats().LiveObjects; got != n+0 {
				// The chain holders are the only allocations here.
				t.Fatalf("LiveObjects = %d, want %d", got, n)
			}
			w.rc.Destroy(head)
			if got := w.h.Stats().LiveObjects; got != 0 {
				t.Errorf("after cascade, LiveObjects = %d, want 0", got)
			}
		})
	}
}

func TestDestroyDiamondSharing(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			child, _ := w.rc.NewObject(w.node)
			left, _ := w.rc.NewObject(w.node)
			right, _ := w.rc.NewObject(w.node)
			w.rc.Store(w.h.FieldAddr(left, 0), child)
			w.rc.Store(w.h.FieldAddr(right, 0), child)
			w.rc.Destroy(child) // drop our local ref; parents keep it alive

			w.rc.Destroy(left)
			if w.h.IsFreed(child) {
				t.Fatal("shared child freed while one parent remains")
			}
			w.rc.Destroy(right)
			if !w.h.IsFreed(child) {
				t.Error("shared child not freed after both parents died")
			}
		})
	}
}

func TestCyclicGarbageLeaksByDesign(t *testing.T) {
	// The paper's Cycle-Free Garbage criterion (§2.1/§3 step 3): reference
	// counts in a garbage cycle stay non-zero forever, so LFRC alone never
	// reclaims it. This test pins that documented behaviour; package
	// gctrace provides the §7 backup collector.
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a, _ := w.rc.NewObject(w.node)
			b, _ := w.rc.NewObject(w.node)
			w.rc.Store(w.h.FieldAddr(a, 0), b)
			w.rc.Store(w.h.FieldAddr(b, 0), a)
			w.rc.Destroy(a, b)

			if w.h.IsFreed(a) || w.h.IsFreed(b) {
				t.Fatal("cycle member freed; refcounting should not reclaim cycles")
			}
			if got := w.h.Stats().LiveObjects; got != 2 {
				t.Errorf("LiveObjects = %d, want 2 leaked cycle members", got)
			}
		})
	}
}

func TestWordOps(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			p, _ := w.rc.NewObject(w.node)
			a := w.h.FieldAddr(p, 2) // scalar field

			w.rc.WordStore(a, 77)
			if got := w.rc.WordLoad(a); got != 77 {
				t.Errorf("WordLoad = %d, want 77", got)
			}
			if w.rc.WordCAS(a, 76, 78) {
				t.Error("WordCAS succeeded with wrong old")
			}
			if !w.rc.WordCAS(a, 77, 78) {
				t.Error("WordCAS failed with right old")
			}
			w.rc.Destroy(p)
		})
	}
}

// statsScript drives one of every counted outcome of every LFRC operation on
// cells private to the call, then releases everything it made: each object
// it allocates is freed again before it returns.
func statsScript(w *world) {
	rc, h := w.rc, w.h
	holder, _ := rc.NewObject(w.node)
	a, b, mark := h.FieldAddr(holder, 0), h.FieldAddr(holder, 1), h.FieldAddr(holder, 2)
	p, _ := rc.NewObject(w.node)
	q, _ := rc.NewObject(w.node)

	rc.Store(a, p) // displaces null
	var dst mem.Ref
	rc.Load(a, &dst)          // into a null dest
	rc.Load(a, &dst)          // into a live dest, releasing it
	rc.Load(a, &dst)          // again: under split-w2, refills, then leaves a stash of 1
	rc.Store(a, q)            // displaces p's link
	rc.CAS(a, q, p)           // wins, displacing q's link
	rc.CAS(a, q, p)           // loses
	rc.DCAS(a, b, p, 0, q, p) // wins, displacing p's link and null
	rc.DCAS(a, b, q, p, p, q) // wins, displacing two links
	rc.DCAS(a, b, q, p, q, p) // loses
	rc.DCASMixed(a, p, q, mark, 0, 1)
	rc.DCASMixed(a, p, q, mark, 0, 1) // loses: the scalar moved
	var loc mem.Ref
	rc.Copy(&loc, p) // into a null local
	rc.Copy(&loc, q) // releasing it

	// r links to p and is linked only from b, so clearing b frees r, and
	// freeing r releases its child link.
	r, _ := rc.NewObject(w.node)
	rc.Store(h.FieldAddr(r, 0), p)
	rc.StoreAlloc(b, r) // displaces q's link
	rc.Store(b, 0)
	rc.Destroy(dst, loc, p, q, 0) // a multi-ref Destroy
	rc.Destroy(holder)
}

// statsCells are the reference-count cells the stats script runs in, each
// with what one run adds to each Stats field. The figures were taken from the
// per-field counters that every operation kept before the counts were derived
// at read time, so they pin the derivation to the old numbers. split-w2 gives
// each link a stash of 2, so the script's Loads refill the stash and a link
// displaced with a stash of 1 is released down the weight-1 path.
var statsCells = []struct {
	name string
	opts []Option
	want Stats
}{
	{"figure2", []Option{WithStrategyKind(StrategyFigure2)},
		Stats{Allocs: 4, Frees: 4, Loads: 3, Stores: 5, Copies: 2, CASOps: 2, DCASOps: 5, Destroys: 22}},
	{"split", []Option{WithStrategyKind(StrategySplit)},
		Stats{Allocs: 4, Frees: 4, Loads: 3, Stores: 5, Copies: 2, CASOps: 2, DCASOps: 5, Destroys: 22, ExtMerges: 14}},
	{"split-w2", []Option{WithStrategyKind(StrategySplit), WithSplitWeights(2, 2)},
		Stats{Allocs: 4, Frees: 4, Loads: 3, Stores: 5, Copies: 2, CASOps: 2, DCASOps: 5, Destroys: 22, WeightRefills: 1, ExtMerges: 13}},
}

func TestStatsCounting(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			for _, cell := range statsCells {
				t.Run(cell.name, func(t *testing.T) {
					w := mk(t, cell.opts...)
					statsScript(w)
					if got, want := w.rc.Stats(), cell.want; got != want {
						t.Errorf("Stats =\n%+v\nwant\n%+v", got, want)
					}
					if live := w.h.Stats().LiveObjects; live != 0 {
						t.Errorf("LiveObjects = %d after the script, want 0", live)
					}
				})
			}
		})
	}
}

// TestStatsExactUnderConcurrency runs the stats script from more goroutines
// than there are Ps, each on its own cells, and requires every Stats field to
// equal the sum of the runs: a counter derived at read time, or one counted
// on another P's stripe, must lose nothing. `make check-race` runs it under
// -race, where goroutines migrate between Ps often.
func TestStatsExactUnderConcurrency(t *testing.T) {
	goroutines := 2*runtime.GOMAXPROCS(0) + 1
	const runs = 200
	for name, mk := range worldFactories() {
		for _, cell := range statsCells {
			t.Run(name+"/"+cell.name, func(t *testing.T) {
				w := mk(t, cell.opts...)
				var wg sync.WaitGroup
				for range goroutines {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for range runs {
							statsScript(w)
						}
					}()
				}
				wg.Wait()
				want := scaleStats(cell.want, int64(goroutines*runs))
				if got := w.rc.Stats(); got != want {
					t.Errorf("Stats =\n%+v\nwant\n%+v", got, want)
				}
			})
		}
	}
}

// scaleStats multiplies every counter of s by n.
func scaleStats(s Stats, n int64) Stats {
	return Stats{
		Allocs: s.Allocs * n, Frees: s.Frees * n, FreeErrors: s.FreeErrors * n,
		Loads: s.Loads * n, LoadRetries: s.LoadRetries * n, Stores: s.Stores * n,
		Copies: s.Copies * n, CASOps: s.CASOps * n, DCASOps: s.DCASOps * n,
		Destroys: s.Destroys * n, ZombiePushes: s.ZombiePushes * n,
		PoisonedRCUpdates: s.PoisonedRCUpdates * n,
		WeightRefills:     s.WeightRefills * n, ExtMerges: s.ExtMerges * n,
	}
}

// TestCorruptCountStaysClearOfTagBits drives a count below zero, as the
// naive protocol of experiment E1 does when its compensating decrement lands
// on a recycled slot. The count may be garbage, but it must stay inside
// mem.ValueMask: the locking engine reads a set top bit as a held lock and
// would wait on the cell forever, and the MCAS engine as a descriptor.
func TestCorruptCountStaysClearOfTagBits(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			p, _ := w.rc.NewObject(w.node)
			w.h.Store(w.h.RCAddr(p), 0) // the count a corrupting thread left
			w.rc.Destroy(p)
			if got := w.h.Load(w.h.RCAddr(p)); got&^mem.ValueMask != 0 {
				t.Fatalf("count after underflow = %#x, has tag bits set", got)
			}
		})
	}
}
