package mem

import "sync/atomic"

// Sharded allocation fast path.
//
// The heap's free lists and bump cursor are striped across shards so that
// allocation and reclamation scale with cores instead of serializing on one
// Treiber head and one global cursor. Each shard owns:
//
//   - one free list per slot size, with an approximate occupancy count:
//     when a shard accumulates 2×shardFillTarget freed slots of one size it
//     migrates shardFillTarget of them to the heap's global overflow list,
//     where other shards refill from (the per-thread freelist/overflow-target
//     pattern of the classic LFRC implementations);
//   - a bump chunk: a contiguous word range claimed from the global cursor
//     in slabWords-sized slabs, so the hot carve path CASes a shard-private
//     cache line and touches the shared cursor only once per slab.
//
// A goroutine uses the shard of the P (logical processor) it runs on, as
// stripe.Hint returns it. The shard count defaults to GOMAXPROCS, so two
// goroutines running at once use different shards. A goroutine may migrate
// between Ps mid-operation, so every structure here must stay safe for
// concurrent use by any number of goroutines. Allocation still prefers
// recycling anywhere over carving new arena words: a local miss falls back
// to the global overflow list, then to stealing from sibling shards, and
// only then to the bump chunk. That preserves the seed allocator's
// invariant that freed slots are reused before the footprint grows.

const (
	// shardFillTarget is the per-shard, per-size free-list fill target.
	// Shards overflow to the global list at twice this occupancy and
	// migrate this many slots when they do.
	shardFillTarget = 64

	// shardRefillBatch is how many extra slots a shard pulls from the
	// global overflow list on a local miss, amortizing the shared head
	// CAS over many allocations.
	shardRefillBatch = 16

	// slabWords is the bump-chunk claim size in words. Slabs never cross
	// segment boundaries, so objects carved from them never do either. It
	// is a whole number of lines, as firstAddr and the segment size are,
	// so every slot carved from a slab starts on a line.
	slabWords = 4096
)

// freeStack is a lock-free Treiber stack of freed slots. The head packs a
// 32-bit pop counter (high) and a 32-bit slot address (low); the counter
// defeats ABA on pop. Links live in the slots' aux words.
type freeStack struct {
	head atomic.Uint64
}

// push links slot r onto the stack.
func (s *freeStack) push(h *Heap, r Ref) {
	for {
		old := s.head.Load()
		h.Store(h.AuxAddr(r), old&0xFFFF_FFFF)
		if s.head.CompareAndSwap(old, old&^uint64(0xFFFF_FFFF)|uint64(r)) {
			return
		}
	}
}

// pop unlinks and returns one slot, or 0 if the stack is observed empty.
func (s *freeStack) pop(h *Heap) Ref {
	for {
		old := s.head.Load()
		r := Ref(old & 0xFFFF_FFFF)
		if r == 0 {
			return 0
		}
		next := h.Load(h.AuxAddr(r)) & 0xFFFF_FFFF
		cnt := (old >> 32) + 1
		if s.head.CompareAndSwap(old, cnt<<32|next) {
			return r
		}
	}
}

// allocShard is one stripe of the allocator. The padding keeps neighbouring
// shards' hot words on distinct cache lines.
type allocShard struct {
	_ [64]byte

	// chunk packs the shard's current bump range: end (high 32 bits) and
	// cursor (low 32 bits). Zero means no chunk.
	chunk atomic.Uint64

	// spare parks a claimed-but-uninstalled chunk after a lost install
	// race, so the words are not abandoned. Zero means empty.
	spare atomic.Uint64

	// lists and counts hold the shard's per-size free lists and their
	// approximate occupancy, indexed by class.
	lists  [sizeClasses]freeStack
	counts [sizeClasses]atomic.Int32

	_ [64]byte
}

// popLocal takes a slot of size class c from this shard's list.
func (sh *allocShard) popLocal(h *Heap, c int) (Ref, bool) {
	r := sh.lists[c].pop(h)
	if r == 0 {
		return 0, false
	}
	sh.counts[c].Add(-1)
	return r, true
}

// pushLocal parks a freed slot on this shard's list, migrating a batch to
// the heap's global overflow list when the shard holds too many.
func (sh *allocShard) pushLocal(h *Heap, r Ref, c int) {
	sh.lists[c].push(h, r)
	if sh.counts[c].Add(1) < 2*shardFillTarget {
		return
	}
	for moved := 0; moved < shardFillTarget; moved++ {
		m := sh.lists[c].pop(h)
		if m == 0 {
			break
		}
		sh.counts[c].Add(-1)
		h.global[c].push(h, m)
		h.globalFree.Add(1)
	}
}

// popGlobal refills from the heap's global overflow list: one slot is
// returned to the caller and up to shardRefillBatch-1 more are moved onto
// the shard's local list.
func (h *Heap) popGlobal(sh *allocShard, c int) (Ref, bool) {
	r := h.global[c].pop(h)
	if r == 0 {
		return 0, false
	}
	h.globalFree.Add(-1)
	for extra := 0; extra < shardRefillBatch-1; extra++ {
		m := h.global[c].pop(h)
		if m == 0 {
			break
		}
		h.globalFree.Add(-1)
		sh.lists[c].push(h, m)
		sh.counts[c].Add(1)
	}
	return r, true
}

// stealFree scans sibling shards' free lists for a recyclable slot. It is
// the cold path that keeps "recycle before carving" a heap-wide invariant
// even when frees and allocs land on different shards.
func (h *Heap) stealFree(self int, c int) (Ref, bool) {
	for i := range h.shards {
		if i == self {
			continue
		}
		if r, ok := h.shards[i].popLocal(h, c); ok {
			return r, true
		}
	}
	return 0, false
}

// shardBump carves size words from the shard's bump chunk, claiming a fresh
// slab from the global cursor when the chunk is exhausted. Chunk tails too
// small for the request are abandoned (never written, skipped by WalkBlocks).
func (h *Heap) shardBump(sh *allocShard, size int) (Ref, error) {
	for {
		ce := sh.chunk.Load()
		cur := ce & 0xFFFF_FFFF
		end := ce >> 32
		if cur+uint64(size) <= end {
			if sh.chunk.CompareAndSwap(ce, ce+uint64(size)) {
				return Ref(cur), nil
			}
			continue
		}
		// Chunk exhausted (or absent): adopt the parked spare if it can
		// satisfy the request.
		if sp := sh.spare.Swap(0); sp != 0 {
			spCur := sp & 0xFFFF_FFFF
			spEnd := sp >> 32
			if spCur+uint64(size) <= spEnd {
				if sh.chunk.CompareAndSwap(ce, sp+uint64(size)) {
					return Ref(spCur), nil
				}
				// The chunk changed under us; repark the spare
				// (dropping it if a new one appeared meanwhile) and
				// retry against the new chunk.
				sh.spare.CompareAndSwap(0, sp)
				continue
			}
			// Spare too small for this request: repark it for smaller
			// requests and claim a fresh slab below.
			sh.spare.CompareAndSwap(0, sp)
		}
		start, cend, err := h.claimChunk(size)
		if err != nil {
			return 0, err
		}
		newCE := uint64(cend)<<32 | (uint64(start) + uint64(size))
		if sh.chunk.CompareAndSwap(ce, newCE) {
			return Ref(start), nil
		}
		// Lost an install race with a concurrent refill of this shard;
		// park the claimed slab for the next exhaustion.
		sh.spare.CompareAndSwap(0, uint64(cend)<<32|uint64(start))
	}
}

// claimChunk advances the global cursor by one slab (clipped to segment
// boundaries and the arena limit) and returns the claimed [start, end)
// range, guaranteed to hold at least min words.
func (h *Heap) claimChunk(min int) (start, end uint32, err error) {
	for {
		n := h.next.Load()
		s := n
		segEnd := (s>>segBits + 1) << segBits
		if segEnd-s < uint64(min) {
			// Too close to a segment boundary for even one object;
			// skip the sliver.
			s = segEnd
			segEnd = s + segWords
		}
		e := s + slabWords
		if e > segEnd {
			e = segEnd
		}
		if e > h.limit {
			e = h.limit
		}
		if s >= h.limit || e < s+uint64(min) {
			return 0, 0, ErrOutOfMemory
		}
		// Map the segment before the cursor publishes it: walkers read
		// every word below the cursor while carves run.
		h.ensureSegment(uint32(s >> segBits))
		if h.next.CompareAndSwap(n, e) {
			for {
				hw := h.highWater.Load()
				if int64(e) <= hw || h.highWater.CompareAndSwap(hw, int64(e)) {
					break
				}
			}
			return uint32(s), uint32(e), nil
		}
	}
}
