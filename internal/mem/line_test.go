package mem

import (
	"testing"
	"unsafe"
)

// lineTracker checks every slot the allocator hands out: its address and
// size are whole lines, its first cell is 64-byte aligned in Go memory, and
// no line it covers belongs to another live object.
type lineTracker struct {
	t     *testing.T
	h     *Heap
	owner map[Addr]Ref // line index -> live object covering it
	shard int          // the shard the last Alloc ran on
}

func newLineTracker(t *testing.T, h *Heap) *lineTracker {
	return &lineTracker{t: t, h: h, owner: map[Addr]Ref{}}
}

func (lt *lineTracker) alloc(typ TypeID, path string) Ref {
	lt.t.Helper()
	before := make([]int64, len(lt.h.stats))
	after := make([]int64, len(lt.h.stats))
	lt.h.ShardAllocsInto(before)
	r, err := lt.h.Alloc(typ)
	if err != nil {
		lt.t.Fatalf("%s: Alloc: %v", path, err)
	}
	lt.h.ShardAllocsInto(after)
	for i := range after {
		if after[i] != before[i] {
			lt.shard = i
		}
	}
	lt.add(r, path)
	return r
}

func (lt *lineTracker) add(r Ref, path string) {
	lt.t.Helper()
	size := sizeOf(lt.h, r)
	if r%LineWords != 0 || size%LineWords != 0 {
		lt.t.Fatalf("%s: slot at word %d of %d words is not whole lines", path, r, size)
	}
	if p := uintptr(unsafe.Pointer(lt.h.cell(r))); p%64 != 0 {
		lt.t.Fatalf("%s: slot at word %d starts at Go address %#x, not on a 64-byte line", path, r, p)
	}
	for l := r / LineWords; l < (r+Ref(size))/LineWords; l++ {
		if o, ok := lt.owner[l]; ok {
			lt.t.Fatalf("%s: slot at word %d shares line %d with live slot %d", path, r, l, o)
		}
		lt.owner[l] = r
	}
}

func (lt *lineTracker) free(r Ref) {
	lt.t.Helper()
	size := sizeOf(lt.h, r)
	if err := lt.h.Free(r); err != nil {
		lt.t.Fatalf("Free(%d): %v", r, err)
	}
	for l := r / LineWords; l < (r+Ref(size))/LineWords; l++ {
		delete(lt.owner, l)
	}
}

// TestSlotsOwnTheirLines drives every allocation path — fresh carve, slab
// exhaustion, local recycle, global refill, sibling steal and a segment
// sliver — and checks each slot it returns owns whole cache lines.
func TestSlotsOwnTheirLines(t *testing.T) {
	h := NewHeap(WithAllocShards(2), WithMaxWords(4*segWords))
	lt := newLineTracker(t, h)
	types := []TypeID{
		h.MustRegisterType(TypeDesc{Name: "f0", NumFields: 0}),
		h.MustRegisterType(TypeDesc{Name: "f3", NumFields: 3}),
		h.MustRegisterType(TypeDesc{Name: "f5", NumFields: 5}),
		h.MustRegisterType(TypeDesc{Name: "f6", NumFields: 6}),
		h.MustRegisterType(TypeDesc{Name: "f13", NumFields: 13}),
		h.MustRegisterType(TypeDesc{Name: "max", NumFields: MaxFields}),
	}
	for i, want := range []int{8, 8, 8, 16, 16, 64} {
		if d, _ := h.Type(types[i]); d.size() != want {
			t.Errorf("%s: slot size %d, want %d", d.Name, d.size(), want)
		}
	}

	// Fresh carve, mixing sizes, over more than one slab so chunks run
	// out and their tails are abandoned.
	var live []Ref
	for i := 0; uint64(len(live))*16 < 3*slabWords; i++ {
		live = append(live, lt.alloc(types[i%len(types)], "carve"))
	}
	if hw := h.Stats().HighWater; hw <= slabWords+firstAddr {
		t.Fatalf("carve stayed inside one slab (high water %d)", hw)
	}

	// Local recycle: free every other slot and take them back.
	recycles := h.Stats().Recycles
	for i := 0; i < len(live); i += 2 {
		lt.free(live[i])
	}
	for i := 0; i < len(live); i += 2 {
		live[i] = lt.alloc(types[i%len(types)], "recycle")
	}
	if got := h.Stats().Recycles - recycles; got != int64((len(live)+1)/2) {
		t.Fatalf("recycled %d slots, want %d", got, (len(live)+1)/2)
	}

	// Global refill: overflow one size class to the global list, then
	// take it all back.
	f3 := types[1]
	batch := make([]Ref, 3*shardFillTarget)
	for i := range batch {
		batch[i] = lt.alloc(f3, "carve for refill")
	}
	for _, r := range batch {
		lt.free(r)
	}
	if h.GlobalFreeListed() == 0 {
		t.Fatal("global overflow list still empty")
	}
	for i := range batch {
		batch[i] = lt.alloc(f3, "global refill")
	}
	if got := h.GlobalFreeListed(); got != 0 {
		t.Fatalf("global overflow list holds %d slots after the refill", got)
	}

	// Sibling steal: park a freed slot on the shard the last Alloc did not
	// use, so the next Alloc misses locally and globally and steals it.
	// Goroutines reach the shard of the P they run on and may migrate
	// between Ps, so retry if Alloc moved to the shard holding the slot.
	stole := false
	for try := 0; try < 4 && !stole; try++ {
		victim := batch[0]
		lt.free(victim)
		c := class(sizeOf(h, victim))
		away := 1 - lt.shard
		for i := range h.shards {
			if r, ok := h.shards[i].popLocal(h, c); ok {
				h.shards[away].pushLocal(h, r, c)
			}
		}
		batch[0] = lt.alloc(f3, "steal")
		if batch[0] != victim {
			t.Fatalf("steal returned slot %d, want %d", batch[0], victim)
		}
		stole = lt.shard != away
	}
	if !stole {
		t.Fatal("every Alloc ran on the shard holding the parked slot")
	}

	// Segment sliver: with the cursor two lines short of a segment end,
	// the next slab skips to the boundary. Both shards' chunks are
	// dropped so the carve must claim one.
	for i := range h.shards {
		h.shards[i].chunk.Store(0)
		h.shards[i].spare.Store(0)
	}
	h.next.Store(2*segWords - 2*LineWords)
	if r := lt.alloc(types[5], "segment sliver"); r != 2*segWords {
		t.Fatalf("slot after a sliver at word %d, want %d", r, 2*segWords)
	}
}
