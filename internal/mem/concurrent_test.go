package mem

import (
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentAllocFree hammers the allocator from many goroutines and
// checks the accounting invariants afterwards: no slot handed out twice, no
// corruption, exact live counts.
func TestConcurrentAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	h := NewHeap(WithMaxWords(8 * segWords))
	typ := h.MustRegisterType(TypeDesc{Name: "t", NumFields: 4, PtrFields: []int{0, 1}})

	const (
		workers = 8
		rounds  = 2000
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			local := make([]Ref, 0, 16)
			for i := 0; i < rounds; i++ {
				if len(local) < 8 || (i+seed)%3 != 0 {
					r, err := h.Alloc(typ)
					if err != nil {
						errs <- err
						return
					}
					// Touch the payload so cross-thread slot
					// sharing would damage poison.
					h.Store(h.FieldAddr(r, 2), uint64(seed)<<32|uint64(i))
					local = append(local, r)
				} else {
					r := local[len(local)-1]
					local = local[:len(local)-1]
					if err := h.Free(r); err != nil {
						errs <- err
						return
					}
				}
			}
			for _, r := range local {
				if err := h.Free(r); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker error: %v", err)
	}

	s := h.Stats()
	if s.LiveObjects != 0 || s.LiveWords != 0 {
		t.Errorf("leftovers: LiveObjects=%d LiveWords=%d", s.LiveObjects, s.LiveWords)
	}
	if s.Corruptions != 0 {
		t.Errorf("Corruptions = %d, want 0 (allocator handed a live slot to two threads?)", s.Corruptions)
	}
	if s.DoubleFrees != 0 {
		t.Errorf("DoubleFrees = %d, want 0", s.DoubleFrees)
	}
	if s.Allocs != s.Frees {
		t.Errorf("Allocs=%d != Frees=%d", s.Allocs, s.Frees)
	}
}

// TestConcurrentFreeListNoDuplicates drains a shared pool of freed slots
// from many goroutines; every pop must yield a distinct slot (the packed
// pop-counter defeats ABA).
func TestConcurrentFreeListNoDuplicates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	h := NewHeap(WithMaxWords(8 * segWords))
	typ := h.MustRegisterType(TypeDesc{Name: "t", NumFields: 1})

	const n = 4000
	for i := 0; i < n; i++ {
		r := h.MustAlloc(typ)
		if err := h.Free(r); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}

	const workers = 8
	results := make([][]Ref, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/workers; i++ {
				r, err := h.Alloc(typ)
				if err != nil {
					t.Errorf("Alloc: %v", err)
					return
				}
				results[w] = append(results[w], r)
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[Ref]bool, n)
	for _, rs := range results {
		for _, r := range rs {
			if seen[r] {
				t.Fatalf("slot %d handed out twice", r)
			}
			seen[r] = true
		}
	}
	if h.Stats().Corruptions != 0 {
		t.Errorf("Corruptions = %d, want 0", h.Stats().Corruptions)
	}
}

// TestConcurrentCellCAS checks that cell CAS operations over the heap are
// linearizable enough to implement a correct shared counter.
func TestConcurrentCellCAS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	h := NewHeap()
	typ := h.MustRegisterType(TypeDesc{Name: "ctr", NumFields: 1})
	r := h.MustAlloc(typ)
	a := h.FieldAddr(r, 0)

	const (
		workers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				for {
					cur := h.Load(a)
					if h.CAS(a, cur, cur+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := h.Load(a); got != workers*perW {
		t.Errorf("counter = %d, want %d", got, workers*perW)
	}
}

// TestStatsNeverNegativeWhileBusy takes snapshots while one goroutine
// allocates and another frees what it allocated, so allocs and frees of one
// object land on different shards' stripes. Stats derives the live figures
// from per-class alloc and free counts, reading the frees first, so no
// snapshot may show fewer live objects, live words or recycles than zero.
func TestStatsNeverNegativeWhileBusy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	h := NewHeap(WithMaxWords(8 * segWords))
	small := h.MustRegisterType(TypeDesc{Name: "small", NumFields: 4})
	big := h.MustRegisterType(TypeDesc{Name: "big", NumFields: 20})

	const n = 20000
	// The buffer lets a few dozen objects stay live between the two
	// goroutines; errs has room for one error from each.
	refs := make(chan Ref, 64)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(refs)
		for i := 0; i < n; i++ {
			typ := small
			if i%3 == 0 {
				typ = big
			}
			r, err := h.Alloc(typ)
			if err != nil {
				errs <- err
				return
			}
			refs <- r
		}
	}()
	go func() {
		defer wg.Done()
		for r := range refs {
			if err := h.Free(r); err != nil {
				errs <- err
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for busy := true; busy; {
		select {
		case <-done:
			busy = false
		default:
		}
		s := h.Stats()
		if s.LiveObjects < 0 || s.LiveWords < 0 || s.Recycles < 0 || s.Recycles > s.Allocs {
			t.Fatalf("snapshot while busy: %+v", s)
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := h.Stats()
	if s.Allocs != n || s.Frees != n || s.LiveObjects != 0 || s.LiveWords != 0 {
		t.Fatalf("at quiescence: %+v, want %d allocs and frees, nothing live", s, n)
	}
	if carved := s.Allocs - s.Recycles; carved <= 0 || carved > n/2 {
		t.Fatalf("carves = %d, want most allocs recycled", carved)
	}
}
