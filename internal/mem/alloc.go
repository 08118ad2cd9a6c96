package mem

import (
	"fmt"

	"lfrc/internal/fault"
	"lfrc/internal/obs"
	"lfrc/internal/stripe"
)

// Alloc carves or recycles a slot for an object of type t: the type's header
// and payload rounded up to whole cache lines, starting on a line. The new
// object has reference count 1 (the reference returned to the caller,
// mirroring the paper's convention that a constructor counts the pointer
// returned by new), null pointer fields, and zeroed scalar fields.
//
// Alloc recycles before it carves: it tries the calling goroutine's shard
// free list for the type's size class, then the global overflow list (refilling
// the shard with a batch), then sibling shards, and only then bumps the
// shard's chunk — claiming a fresh slab from the arena when the chunk is
// spent. When recycling, it verifies that the slot's poison pattern is
// intact; a damaged pattern means some thread wrote to freed memory, and is
// recorded in Stats().Corruptions.
func (h *Heap) Alloc(t TypeID) (Ref, error) { return h.alloc(t, h.shardIndex()) }

// AllocOn is Alloc for a caller that has already read its P id p with
// stripe.ID, to route its own striped counters too.
func (h *Heap) AllocOn(t TypeID, p int) (Ref, error) {
	return h.alloc(t, stripe.Of(p, len(h.shards)))
}

// alloc is Alloc on shard idx.
func (h *Heap) alloc(t TypeID, idx int) (Ref, error) {
	if uint32(t) >= h.typeCount.Load() {
		return 0, fmt.Errorf("%w: unknown type id %d", ErrBadType, t)
	}
	d := h.typeOf(t)
	size := d.size()
	c := class(size)

	t0 := h.obs.Sample()
	sh := &h.shards[idx]
	st := &h.stats[idx]

	// Injected exhaustion takes the same accounting path a real one does,
	// so degraded-mode policies above see an indistinguishable failure.
	if h.fj.Inject(fault.MemAlloc) {
		st.allocFailures.Add(1)
		return 0, fmt.Errorf("%w (injected)", ErrOutOfMemory)
	}

	var r Ref
	recycled := false
	if !h.fj.Inject(fault.MemAllocSlow) {
		r, recycled = sh.popLocal(h, c)
	}
	if !recycled {
		r, recycled = h.popGlobal(sh, c)
	}
	stolen := false
	if !recycled {
		r, recycled = h.stealFree(idx, c)
		stolen = recycled
	}
	if !recycled {
		var err error
		r, err = h.shardBump(sh, size)
		if err != nil {
			st.allocFailures.Add(1)
			return 0, err
		}
	}

	gen := uint32(1)
	if recycled {
		old := h.Load(r)
		gen = headerGen(old) + 1
		h.checkPoison(r, size, st)
	}

	// Initialize payload (null refs / zero scalars), then rc, then the
	// header last so the freed bit clears only once the slot is sound.
	for i := 0; i < d.NumFields; i++ {
		h.Store(h.FieldAddr(r, i), 0)
	}
	h.Store(h.AuxAddr(r), 0)
	h.Store(h.RCAddr(r), 1)
	h.Store(r, packHeader(size, t, false, gen))

	// Count the alloc before the carve, so a snapshot that reads carves
	// first never finds more carves than allocs.
	st.allocs[c].Add(1)
	if !recycled {
		st.carves.Add(1)
	}
	if stolen {
		h.obs.Note(obs.KindSteal, uint32(r), 0)
	}
	// Old carries the slot generation, New the auditor's pass clock, so a
	// lifecycle timeline distinguishes a fresh carve (gen 1) from a reuse
	// and places both in audit time.
	h.obs.RecordT(t0, obs.KindAlloc, uint32(r), 0, recycled, 0, gen, uint32(h.epoch.Load()))
	return r, nil
}

// MustAlloc is Alloc for code paths where exhaustion is fatal (tests,
// examples); it panics on error.
func (h *Heap) MustAlloc(t TypeID) Ref {
	r, err := h.Alloc(t)
	if err != nil {
		panic(err)
	}
	return r
}

// Free returns the object at r to the calling goroutine's shard free list.
// The rc cell and payload cells are poisoned, and the freed bit is set with
// CAS so a concurrent double free is detected rather than corrupting the
// free list.
//
// Free does not consult or require a zero reference count: that policy
// belongs to package core (LFRCDestroy). Freeing an object that other
// threads still reference will surface as poison corruption — which is the
// behaviour the paper's methodology exists to prevent.
func (h *Heap) Free(r Ref) error { return h.free(r, h.shardIndex()) }

// FreeOn is Free for a caller that has already read its P id p with
// stripe.ID, to route its own striped counters too.
func (h *Heap) FreeOn(r Ref, p int) error {
	return h.free(r, stripe.Of(p, len(h.shards)))
}

// free is Free to shard idx.
func (h *Heap) free(r Ref, idx int) error {
	t0 := h.obs.Sample()
	st := &h.stats[idx]

	if r == 0 || !h.InArena(r) {
		return fmt.Errorf("%w: %#x", ErrBadRef, r)
	}
	for {
		hdr := h.Load(r)
		size := headerSize(hdr)
		if size < HeaderWords || size > maxObjWords {
			return fmt.Errorf("%w: %#x has no object header", ErrBadRef, r)
		}
		if headerFreed(hdr) {
			st.doubleFrees.Add(1)
			// OK=false marks the free as rejected: the lifecycle
			// auditor reads this as a double-free signal.
			h.obs.RecordT(t0, obs.KindFree, uint32(r), 0, false, 0,
				headerGen(hdr), uint32(h.epoch.Load()))
			return ErrDoubleFree
		}
		if h.CAS(r, hdr, hdr|hdrFreedBit) {
			break
		}
	}

	hdr := h.Load(r)
	size := headerSize(hdr)
	gen := headerGen(hdr)
	h.poison(r, size)

	c := class(size)
	st.frees[c].Add(1)
	// Record before pushLocal publishes the slot: once it is on a free
	// list a sibling may recycle it and rewrite the header.
	h.obs.RecordT(t0, obs.KindFree, uint32(r), 0, true, 0,
		gen, uint32(h.epoch.Load()))
	h.shards[idx].pushLocal(h, r, c)
	return nil
}

// poison writes the pattern a freed slot of size words at r carries until
// it is recycled: Poison in the count cell and in every payload cell. The
// header keeps the freed bit and the aux cell the free-list link, so neither
// is poisoned. poison and poisonDamage are the only code that knows this
// layout; change them together.
func (h *Heap) poison(r Ref, size int) {
	h.Store(h.RCAddr(r), Poison)
	for a := r + HeaderWords; a < r+Addr(size); a++ {
		h.Store(a, Poison)
	}
}

// poisonDamage returns the offset from r of the first cell of a freed slot
// of size words that no longer holds the pattern poison wrote, or 0 if the
// pattern is intact.
func (h *Heap) poisonDamage(r Ref, size int) int {
	if h.Load(h.RCAddr(r)) != Poison {
		return int(h.RCAddr(r) - r)
	}
	for a := r + HeaderWords; a < r+Addr(size); a++ {
		if h.Load(a) != Poison {
			return int(a - r)
		}
	}
	return 0
}

// checkPoison counts a recycled slot whose poison is damaged as one
// corruption and captures a postmortem for it. It repairs nothing; the slot
// leaves the free list here, so each damage is counted once.
func (h *Heap) checkPoison(r Ref, size int, st *statStripe) {
	if h.poisonDamage(r, size) != 0 {
		st.corruptions.Add(1)
		h.obs.CapturePostmortem("poison corruption on recycled slot", uint32(r))
	}
}

// PoisonDamage is one freed slot whose poison pattern was overwritten: some
// thread wrote to freed memory.
type PoisonDamage struct {
	Ref Ref

	// Offset is the first damaged cell's offset from Ref (1 for the count
	// cell).
	Offset int
}

// ScanPoison checks the poison pattern of every freed slot and returns each
// damaged one, in address order. Alloc makes the same check when it recycles
// a slot; ScanPoison finds the damage before any recycle, so a test can
// blame the run that wrote to freed memory. The heap must be quiescent.
func (h *Heap) ScanPoison() []PoisonDamage {
	var out []PoisonDamage
	h.WalkBlocks(func(b Block) bool {
		if b.Freed {
			if off := h.poisonDamage(b.Ref, b.Size); off != 0 {
				out = append(out, PoisonDamage{Ref: b.Ref, Offset: off})
			}
		}
		return true
	})
	return out
}
