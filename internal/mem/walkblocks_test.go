package mem

import "testing"

// TestWalkBlocksReportsTypedBlocks: WalkBlocks is the census's heap iterator;
// each live block must surface with its ref, type, size and generation, and
// freed slots must be flagged rather than skipped.
func TestWalkBlocksReportsTypedBlocks(t *testing.T) {
	h := NewHeap()
	small := h.MustRegisterType(TypeDesc{Name: "small", NumFields: 1})
	big := h.MustRegisterType(TypeDesc{Name: "big", NumFields: 5, PtrFields: []int{0, 4}})

	s1, err := h.Alloc(small)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	b1, err := h.Alloc(big)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	dead, err := h.Alloc(small)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := h.Free(dead); err != nil {
		t.Fatalf("Free: %v", err)
	}

	got := map[Ref]Block{}
	h.WalkBlocks(func(b Block) bool {
		if _, dup := got[b.Ref]; dup {
			t.Errorf("block %d visited twice", b.Ref)
		}
		got[b.Ref] = b
		return true
	})
	if len(got) != 3 {
		t.Fatalf("visited %d blocks, want 3: %+v", len(got), got)
	}
	// Size is the slot footprint: both types (4 and 8 words of header and
	// payload) fit one whole cache line.
	if b := got[s1]; b.Type != small || b.Size != LineWords || b.Freed {
		t.Errorf("small block = %+v", b)
	}
	if b := got[b1]; b.Type != big || b.Size != LineWords || b.Freed {
		t.Errorf("big block = %+v", b)
	}
	if b := got[dead]; !b.Freed {
		t.Errorf("freed slot not flagged: %+v", b)
	}

	// The per-block fields must agree with the word-at-a-time accessors.
	for r, b := range got {
		if b.Type != h.TypeOf(r) || b.Size != sizeOf(h, r) || b.Freed != h.IsFreed(r) || b.Gen != h.Generation(r) {
			t.Errorf("block %d disagrees with accessors: %+v", r, b)
		}
	}
}

// TestWalkBlocksEarlyStop: returning false halts the walk.
func TestWalkBlocksEarlyStop(t *testing.T) {
	h := NewHeap()
	tid := h.MustRegisterType(TypeDesc{Name: "t", NumFields: 1})
	for i := 0; i < 8; i++ {
		if _, err := h.Alloc(tid); err != nil {
			t.Fatalf("Alloc: %v", err)
		}
	}
	visited := 0
	h.WalkBlocks(func(Block) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Errorf("visited %d blocks after early stop, want 3", visited)
	}
}

// TestWalkBlocksAgreesWithWalk: the block walk must see exactly the slots
// Alloc handed out, mixed sizes, freed and recycled ones included, in address
// order and with each freed flag as the caller left it.
func TestWalkBlocksAgreesWithWalk(t *testing.T) {
	h := NewHeap()
	a := h.MustRegisterType(TypeDesc{Name: "a", NumFields: 2})
	b := h.MustRegisterType(TypeDesc{Name: "b", NumFields: 7})
	want := map[Ref]bool{} // ref -> freed
	for i := 0; i < 16; i++ {
		tid := a
		if i%3 == 0 {
			tid = b
		}
		r, err := h.Alloc(tid)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		want[r] = false
		if i%5 == 0 {
			if err := h.Free(r); err != nil {
				t.Fatalf("Free: %v", err)
			}
			want[r] = true
		}
	}
	var fromBlocks []Block
	h.WalkBlocks(func(blk Block) bool {
		fromBlocks = append(fromBlocks, blk)
		return true
	})
	if len(fromBlocks) != len(want) {
		t.Fatalf("WalkBlocks saw %d slots, Alloc handed out %d", len(fromBlocks), len(want))
	}
	for i, blk := range fromBlocks {
		if i > 0 && blk.Ref <= fromBlocks[i-1].Ref {
			t.Errorf("slot %d: WalkBlocks visited %d after %d", i, blk.Ref, fromBlocks[i-1].Ref)
		}
		freed, ok := want[blk.Ref]
		if !ok {
			t.Errorf("slot %d: WalkBlocks visited %d, which Alloc never returned", i, blk.Ref)
		} else if blk.Freed != freed {
			t.Errorf("slot %d: ref %d freed=%v, want %v", i, blk.Ref, blk.Freed, freed)
		}
	}
}

// TestCarvedWordsAreMappedWhenPublished: a walker that reads the cursor and
// then a word below it must find that word's segment mapped, even while a
// carve is crossing into a new segment. The census walks the heap this way
// while mutators run.
func TestCarvedWordsAreMappedWhenPublished(t *testing.T) {
	h := NewHeap(WithMaxWords(32 * segWords))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, _, err := h.claimChunk(LineWords); err != nil {
				return
			}
		}
	}()
	read := func(a Addr) (err any) {
		defer func() { err = recover() }()
		h.Load(a)
		return nil
	}
	for {
		select {
		case <-done:
			return
		default:
		}
		end := h.next.Load()
		if err := read(Addr(end - 1)); err != nil {
			<-done
			t.Fatalf("word %#x below the cursor %#x: %v", end-1, end, err)
		}
	}
}
