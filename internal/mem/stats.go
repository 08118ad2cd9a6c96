package mem

import "sync/atomic"

// statStripe is one stripe of heap accounting, padded so stripes on
// different shards never false-share. Heap.stats holds one stripe per
// allocation shard; snapshots sum across stripes.
//
// An alloc or a free counts itself once, in its size class; a carve also
// counts itself in carves. Stats derives the rest: live objects are allocs
// minus frees, live words weigh each class's live objects by its slot size,
// and recycles are allocs minus carves.
type statStripe struct {
	allocs        [sizeClasses]atomic.Int64
	frees         [sizeClasses]atomic.Int64
	carves        atomic.Int64
	doubleFrees   atomic.Int64
	corruptions   atomic.Int64
	allocFailures atomic.Int64
	_             [64]byte
}

// sum adds up one stripe's per-class counts.
func sum(cs *[sizeClasses]atomic.Int64) int64 {
	var n int64
	for c := range cs {
		n += cs[c].Load()
	}
	return n
}

// Stats is a point-in-time snapshot of heap accounting. Individual counters
// are read atomically but the snapshot as a whole is not; take it at
// quiescence when exact cross-counter invariants matter.
type Stats struct {
	// Allocs and Frees count successful Alloc and Free calls.
	Allocs, Frees int64

	// Recycles counts Allocs satisfied from a free list rather than by
	// carving new arena words.
	Recycles int64

	// LiveObjects and LiveWords describe currently allocated storage.
	// LiveWords is the metric experiment E3 plots: it grows and shrinks
	// with the data structure, unlike a type-stable free-list scheme's
	// footprint.
	LiveObjects, LiveWords int64

	// HighWater is the largest arena extent ever carved, in words. Slabs
	// are claimed whole, so it rounds up to the last slab boundary.
	HighWater int64

	// DoubleFrees counts Free calls on already-freed objects.
	DoubleFrees int64

	// Corruptions counts recycled slots whose poison pattern had been
	// overwritten — evidence that some thread wrote to freed memory.
	Corruptions int64

	// AllocFailures counts Allocs that returned ErrOutOfMemory.
	AllocFailures int64
}

// Stats returns a snapshot of the heap's counters, summed across stripes.
func (h *Heap) Stats() Stats {
	// Every stripe's frees and carves are read before any stripe's allocs:
	// an object is counted allocated before it is freed or found carved,
	// perhaps on another stripe, so a snapshot of a busy heap never shows
	// negative live objects, live words or recycles.
	var s Stats
	var allocs, frees [sizeClasses]int64
	var carves int64
	for i := range h.stats {
		st := &h.stats[i]
		for c := range st.frees {
			frees[c] += st.frees[c].Load()
		}
		carves += st.carves.Load()
		s.DoubleFrees += st.doubleFrees.Load()
		s.Corruptions += st.corruptions.Load()
		s.AllocFailures += st.allocFailures.Load()
	}
	for i := range h.stats {
		for c := range h.stats[i].allocs {
			allocs[c] += h.stats[i].allocs[c].Load()
		}
	}
	for c := range allocs {
		s.Allocs += allocs[c]
		s.Frees += frees[c]
		s.LiveWords += (allocs[c] - frees[c]) * int64((c+1)*LineWords)
	}
	s.LiveObjects = s.Allocs - s.Frees
	s.Recycles = s.Allocs - carves
	s.HighWater = h.highWater.Load()
	return s
}

// ShardStats describes one allocation shard's activity and current holdings.
type ShardStats struct {
	// Allocs, Frees and Recycles count operations routed to this shard.
	Allocs, Frees, Recycles int64

	// FreeListed is the approximate number of freed slots currently parked
	// on the shard's local free lists, across all size classes.
	FreeListed int64

	// ChunkFree is the number of unfilled words left in the shard's
	// current bump chunk.
	ChunkFree int64
}

// AllocStats describes the sharded allocator's configuration and per-shard
// state. Like Stats it is a racy snapshot; take it at quiescence when exact
// numbers matter.
type AllocStats struct {
	// Shards is the configured shard count.
	Shards int

	// FillTarget is the per-shard, per-size free-list fill target; shards
	// overflow to the global list at twice this occupancy.
	FillTarget int

	// GlobalFreeListed is the number of freed slots currently parked on
	// the heap's global overflow lists.
	GlobalFreeListed int64

	// PerShard holds one entry per shard, in shard order.
	PerShard []ShardStats
}

// GlobalFreeListed reports the number of freed slots currently parked on the
// heap's global overflow lists. Unlike AllocStats it allocates nothing; the
// timeline capture path reads it every interval.
func (h *Heap) GlobalFreeListed() int64 {
	return h.globalFree.Load()
}

// ShardAllocsInto fills dst[i] with shard i's cumulative allocation count for
// i < min(len(dst), shards) and returns the configured shard count. It is the
// allocation-free slice of AllocStats the timeline capture path uses.
func (h *Heap) ShardAllocsInto(dst []int64) int {
	n := len(h.shards)
	for i := 0; i < n && i < len(dst); i++ {
		dst[i] = sum(&h.stats[i].allocs)
	}
	return n
}

// AllocStats returns a snapshot of the sharded allocator's state.
func (h *Heap) AllocStats() AllocStats {
	a := AllocStats{
		Shards:           len(h.shards),
		FillTarget:       shardFillTarget,
		GlobalFreeListed: h.globalFree.Load(),
		PerShard:         make([]ShardStats, len(h.shards)),
	}
	for i := range h.shards {
		sh := &h.shards[i]
		st := &h.stats[i]
		var listed int64
		for size := range sh.counts {
			if n := sh.counts[size].Load(); n > 0 {
				listed += int64(n)
			}
		}
		ce := sh.chunk.Load()
		carves := st.carves.Load()
		allocs := sum(&st.allocs)
		a.PerShard[i] = ShardStats{
			Allocs:     allocs,
			Frees:      sum(&st.frees),
			Recycles:   allocs - carves,
			FreeListed: listed,
			ChunkFree:  int64(ce>>32) - int64(ce&0xFFFF_FFFF),
		}
	}
	return a
}
