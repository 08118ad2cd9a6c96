package mem

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestShardCountOption(t *testing.T) {
	if got, want := NewHeap().Shards(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default Shards() = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := NewHeap(WithAllocShards(3)).Shards(); got != 3 {
		t.Errorf("WithAllocShards(3): Shards() = %d, want 3", got)
	}
	if got := NewHeap(WithAllocShards(1000)).Shards(); got != 64 {
		t.Errorf("WithAllocShards(1000): Shards() = %d, want clamp to 64", got)
	}
	if got, want := NewHeap(WithAllocShards(-1)).Shards(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("WithAllocShards(-1): Shards() = %d, want fallback %d", got, want)
	}
}

// TestOverflowMigrationAndRefill drives a single shard past twice its fill
// target so it must migrate slots to the global overflow list, then
// reallocates everything and checks every slot came back recycled.
func TestOverflowMigrationAndRefill(t *testing.T) {
	h := NewHeap(WithAllocShards(1))
	tid := h.MustRegisterType(TypeDesc{Name: "node", NumFields: 2})

	const n = 3 * shardFillTarget
	refs := make([]Ref, 0, n)
	for i := 0; i < n; i++ {
		refs = append(refs, h.MustAlloc(tid))
	}
	for _, r := range refs {
		if err := h.Free(r); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}

	as := h.AllocStats()
	if as.GlobalFreeListed == 0 {
		t.Fatalf("freed %d slots of one size through one shard (2x fill target is %d); global overflow list still empty", n, 2*shardFillTarget)
	}
	if got := as.GlobalFreeListed + as.PerShard[0].FreeListed; got != n {
		t.Errorf("global (%d) + local (%d) free-listed = %d, want %d", as.GlobalFreeListed, as.PerShard[0].FreeListed, got, n)
	}

	hw := h.Stats().HighWater
	for i := 0; i < n; i++ {
		h.MustAlloc(tid)
	}
	st := h.Stats()
	if st.Recycles != n {
		t.Errorf("Recycles = %d, want %d (every realloc should hit a free list)", st.Recycles, n)
	}
	if st.HighWater != hw {
		t.Errorf("HighWater grew from %d to %d while free slots were available", hw, st.HighWater)
	}
}

// TestStealFree parks a freed slot on one shard and steals it from the
// other's perspective.
func TestStealFree(t *testing.T) {
	h := NewHeap(WithAllocShards(2))
	tid := h.MustRegisterType(TypeDesc{Name: "node", NumFields: 2})
	r := h.MustAlloc(tid)
	c := class(sizeOf(h, r))
	if err := h.Free(r); err != nil {
		t.Fatalf("Free: %v", err)
	}
	holder := -1
	for i := range h.shards {
		if h.shards[i].counts[c].Load() > 0 {
			holder = i
			break
		}
	}
	if holder < 0 {
		t.Fatal("freed slot not found on any shard's local list")
	}
	got, ok := h.stealFree(1-holder, c)
	if !ok || got != r {
		t.Fatalf("stealFree from sibling of shard %d = (%#x, %v), want (%#x, true)", holder, got, ok, r)
	}
}

// TestContentionShardedAllocFree hammers Alloc/Free from oversubscribed
// goroutines across size classes, with burst phases that force overflow
// migration and refill, then checks the conservation invariants.
func TestContentionShardedAllocFree(t *testing.T) {
	h := NewHeap()
	types := []TypeID{
		h.MustRegisterType(TypeDesc{Name: "c2", NumFields: 2, PtrFields: []int{0}}),
		h.MustRegisterType(TypeDesc{Name: "c5", NumFields: 5, PtrFields: []int{0, 1}}),
		h.MustRegisterType(TypeDesc{Name: "c13", NumFields: 13}),
	}

	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const rounds = 40
	burst := 2*shardFillTarget + 16 // past the migration threshold every round

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			local := make([]Ref, 0, burst)
			for round := 0; round < rounds; round++ {
				for i := 0; i < burst; i++ {
					r, err := h.Alloc(types[rng.Intn(len(types))])
					if err != nil {
						errs <- err
						return
					}
					local = append(local, r)
				}
				// Free in shuffled order so list traffic isn't pure LIFO.
				rng.Shuffle(len(local), func(i, j int) { local[i], local[j] = local[j], local[i] })
				for _, r := range local {
					if err := h.Free(r); err != nil {
						errs <- err
						return
					}
				}
				local = local[:0]
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker error: %v", err)
	}

	st := h.Stats()
	if st.Allocs != st.Frees+st.LiveObjects {
		t.Errorf("conservation violated: Allocs (%d) != Frees (%d) + LiveObjects (%d)", st.Allocs, st.Frees, st.LiveObjects)
	}
	if st.LiveObjects != 0 || st.LiveWords != 0 {
		t.Errorf("everything was freed but LiveObjects = %d, LiveWords = %d", st.LiveObjects, st.LiveWords)
	}
	if st.Corruptions != 0 {
		t.Errorf("Corruptions = %d, want 0", st.Corruptions)
	}
	if st.DoubleFrees != 0 {
		t.Errorf("DoubleFrees = %d, want 0", st.DoubleFrees)
	}
	if st.Recycles == 0 {
		t.Error("no allocation was ever recycled; free lists are not being consulted")
	}

	as := h.AllocStats()
	var allocs, frees, recycles, listed int64
	for _, sh := range as.PerShard {
		allocs += sh.Allocs
		frees += sh.Frees
		recycles += sh.Recycles
		listed += sh.FreeListed
	}
	if allocs != st.Allocs || frees != st.Frees || recycles != st.Recycles {
		t.Errorf("per-shard sums (allocs %d, frees %d, recycles %d) disagree with Stats (%d, %d, %d)",
			allocs, frees, recycles, st.Allocs, st.Frees, st.Recycles)
	}
	// At quiescence every freed-but-not-recycled slot is parked on exactly
	// one list, local or global.
	if got, want := listed+as.GlobalFreeListed, st.Frees-st.Recycles; got != want {
		t.Errorf("free-listed slots (local %d + global %d = %d) != Frees - Recycles (%d)",
			listed, as.GlobalFreeListed, listed+as.GlobalFreeListed, want)
	}

	// The walk must still see every carved slot exactly once, all freed now.
	var walked int64
	h.WalkBlocks(func(b Block) bool {
		if !b.Freed {
			t.Errorf("WalkBlocks found live object %#x after everything was freed", b.Ref)
			return false
		}
		walked++
		return true
	})
	if want := st.Allocs - st.Recycles; walked != want {
		t.Errorf("WalkBlocks visited %d slots, want %d (Allocs - Recycles)", walked, want)
	}
}
