package core

import (
	"runtime"
	"sync"
	"testing"

	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

// TestLoadSurvivesConcurrentFree opens the Load race window
// deterministically: while a loader sits between reading (pointer, count)
// and its DCAS, the owner swings the shared pointer away and frees the old
// referent. The DCAS must fail (the pointer changed) and the retry must
// return the new referent — with zero poisoned count updates. This is the
// paper's §5 argument for DCAS, made executable.
func TestLoadSurvivesConcurrentFree(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a := w.sharedPtr(t)
			p, _ := w.rc.NewObject(w.node)
			q, _ := w.rc.NewObject(w.node)
			w.rc.StoreAlloc(a, p)

			fired := false
			w.rc.LoadHook = func(v mem.Ref) {
				if fired || v != p {
					return
				}
				fired = true
				// Owner: replace p with q and drop p's last ref.
				w.rc.Store(a, q)
			}

			var dst mem.Ref
			w.rc.Load(a, &dst)
			w.rc.LoadHook = nil

			if !fired {
				t.Fatal("hook did not fire")
			}
			if !w.h.IsFreed(p) {
				t.Fatal("old referent not freed by owner")
			}
			if dst != q {
				t.Fatalf("Load returned %d, want the new referent %d", dst, q)
			}
			if got := w.rc.Stats().PoisonedRCUpdates; got != 0 {
				t.Errorf("PoisonedRCUpdates = %d, want 0: safe Load touched freed memory", got)
			}
			if got := w.h.Stats().Corruptions; got != 0 {
				t.Errorf("heap Corruptions = %d, want 0", got)
			}
			w.rc.Destroy(dst, q)
		})
	}
}

// poisonOnceEngine answers the first read of cell rcA with mem.Poison — what
// a Load sees when the referent is freed between its pointer and count reads
// — and counts DCASes issued with a poisoned comparand.
type poisonOnceEngine struct {
	dcas.Engine
	rcA            mem.Addr
	poisoned       bool
	poisonedDCASes int
}

func (e *poisonOnceEngine) Read(a mem.Addr) uint64 {
	if a == e.rcA && !e.poisoned {
		e.poisoned = true
		return mem.Poison
	}
	return e.Engine.Read(a)
}

func (e *poisonOnceEngine) DCAS(a0, a1 mem.Addr, old0, old1, new0, new1 uint64) bool {
	if old0 >= mem.Poison || old1 >= mem.Poison {
		e.poisonedDCASes++
	}
	return e.Engine.DCAS(a0, a1, old0, old1, new0, new1)
}

// TestLoadRetriesOnPoisonedCount checks that a figure2 Load reading a
// poisoned count retries without issuing its DCAS: a software DCAS installs
// into its lower address first, so a DCAS comparing the freed rc cell could
// briefly write a descriptor into freed memory before failing.
func TestLoadRetriesOnPoisonedCount(t *testing.T) {
	engines := map[string]func(*mem.Heap) dcas.Engine{
		"locking": func(h *mem.Heap) dcas.Engine { return dcas.NewLocking(h) },
		"mcas":    func(h *mem.Heap) dcas.Engine { return dcas.NewMCAS(h) },
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			h := mem.NewHeap()
			e := &poisonOnceEngine{Engine: mk(h)}
			rc := New(h, e)
			holder, _ := rc.NewObject(h.MustRegisterType(mem.TypeDesc{Name: "cell", NumFields: 1, PtrFields: []int{0}}))
			p, _ := rc.NewObject(h.MustRegisterType(mem.TypeDesc{Name: "leaf", NumFields: 1}))
			a := h.FieldAddr(holder, 0)
			rc.StoreAlloc(a, p)
			e.rcA = h.RCAddr(p)

			var dst mem.Ref
			rc.Load(a, &dst)
			if !e.poisoned {
				t.Fatal("the count was never read")
			}
			if e.poisonedDCASes != 0 {
				t.Errorf("%d DCASes issued with a comparand >= mem.Poison", e.poisonedDCASes)
			}
			if dst != p || rc.RCOf(p) != 2 {
				t.Errorf("Load = %d with rc %d, want %d with rc 2", dst, rc.RCOf(p), p)
			}
			if got := rc.Stats().LoadRetries; got != 1 {
				t.Errorf("LoadRetries = %d, want 1", got)
			}
		})
	}
}

// TestNaiveLoadCorruptsFreedMemory opens the same window for the CAS-only
// protocol: the increment lands in a freed (poisoned) cell, which the RC
// tallies and the heap would surface as corruption on reuse.
func TestNaiveLoadCorruptsFreedMemory(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a := w.sharedPtr(t)
			p, _ := w.rc.NewObject(w.node)
			q, _ := w.rc.NewObject(w.node)
			w.rc.StoreAlloc(a, p)

			fired := false
			w.rc.NaiveHook = func(v mem.Ref) {
				if fired || v != p {
					return
				}
				fired = true
				w.rc.Store(a, q) // frees p while the naive loader holds it
			}

			var dst mem.Ref
			w.rc.NaiveLoad(a, &dst)
			w.rc.NaiveHook = nil

			if !fired {
				t.Fatal("hook did not fire")
			}
			if got := w.rc.Stats().PoisonedRCUpdates; got == 0 {
				t.Error("naive CAS-only load did not touch freed memory; expected corruption")
			}
			w.rc.Destroy(dst, q)
		})
	}
}

// TestConcurrentLoadStoreChurn is the E1 workload in miniature: an owner
// continuously replaces the referent of a shared pointer (freeing the old
// one) while readers Load it. With the safe protocol there must be no
// corruption, no double frees, and no leaks.
func TestConcurrentLoadStoreChurn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			a := w.sharedPtr(t)
			p, _ := w.rc.NewObject(w.node)
			w.rc.StoreAlloc(a, p)

			const (
				readers = 6
				rounds  = 3000
			)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var dst mem.Ref
					for {
						select {
						case <-stop:
							w.rc.Destroy(dst)
							return
						default:
							w.rc.Load(a, &dst)
							if dst != 0 && w.h.IsFreed(dst) {
								t.Error("Load returned a freed object")
								w.rc.Destroy(dst)
								return
							}
						}
					}
				}()
			}
			for i := 0; i < rounds; i++ {
				n, err := w.rc.NewObject(w.node)
				if err != nil {
					t.Fatalf("NewObject: %v", err)
				}
				w.rc.StoreAlloc(a, n)
			}
			close(stop)
			wg.Wait()
			w.rc.Store(a, 0)

			s := w.rc.Stats()
			if s.PoisonedRCUpdates != 0 {
				t.Errorf("PoisonedRCUpdates = %d, want 0", s.PoisonedRCUpdates)
			}
			hs := w.h.Stats()
			if hs.Corruptions != 0 || hs.DoubleFrees != 0 {
				t.Errorf("Corruptions=%d DoubleFrees=%d, want 0/0", hs.Corruptions, hs.DoubleFrees)
			}
			// Only the holder object remains live.
			if hs.LiveObjects != 1 {
				t.Errorf("LiveObjects = %d, want 1 (the holder)", hs.LiveObjects)
			}
		})
	}
}

// TestConcurrentSharedCounterViaCopy stresses Copy/Destroy reference
// juggling across goroutines: every goroutine repeatedly copies a shared
// root into a local, then drops it; the root's count must return to exactly
// its resting value.
func TestConcurrentCopyDestroyBalance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			root, _ := w.rc.NewObject(w.node)

			const workers, perW = 8, 2000
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var local mem.Ref
					for j := 0; j < perW; j++ {
						w.rc.Copy(&local, root)
					}
					w.rc.Destroy(local)
				}()
			}
			wg.Wait()
			if got := w.rc.RCOf(root); got != 1 {
				t.Errorf("rc(root) = %d after balanced copy/destroy, want 1", got)
			}
			w.rc.Destroy(root)
			if got := w.h.Stats().LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d, want 0", got)
			}
		})
	}
}
