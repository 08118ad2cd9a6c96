// Package gctrace implements a stop-the-world mark–sweep collector over the
// simulated heap.
//
// The LFRC paper's §7 names the one reclamation gap of reference counting —
// cyclic garbage — and proposes "to integrate a tracing collector that can
// be invoked occasionally in order to identify and collect cyclic garbage".
// This package is that collector. It is deliberately stop-the-world: the
// paper positions it as an occasional backup pass run at quiescence, not as
// a concurrent collector (making *it* lock-free is exactly the future work
// the paper leaves open).
//
// Collect takes its mark from the heap census: the census builds the object
// graph (reading cells through the caller's reader and decoding links
// through the caller's decoder) and runs its reachability pass. Collect then
// sweeps: unreachable live objects are freed regardless of their reference
// counts (a garbage cycle's counts never reach zero — that is the point),
// and the weight of every link such objects held into the surviving graph is
// subtracted from the survivors' counts so ordinary LFRC reclamation stays
// exact afterwards.
package gctrace

import (
	"sync"

	"lfrc/internal/census"
	"lfrc/internal/mem"
)

// Collector performs stop-the-world mark–sweep passes over one heap.
// Methods are mutually excluded; the heap itself must be quiescent (no
// running mutators) for the duration of Collect.
type Collector struct {
	h *mem.Heap

	mu    sync.Mutex
	roots map[mem.Ref]*rootEntry
}

// rootEntry is one registered root's bookkeeping: how many handles hold it
// and what kind of structure anchored it (for diagnostic exports).
type rootEntry struct {
	count int
	name  string
}

// New creates a collector for h.
func New(h *mem.Heap) *Collector {
	return &Collector{h: h, roots: make(map[mem.Ref]*rootEntry)}
}

// AddRoot registers a root reference: an object the mutator side holds alive
// outside the heap (for example a deque's anchor). Roots may be registered
// multiple times; each AddRoot needs a matching RemoveRoot.
func (c *Collector) AddRoot(r mem.Ref) { c.AddNamedRoot(r, "") }

// AddNamedRoot is AddRoot with a structure-kind label ("deque", "queue", ...)
// that diagnostic exports — the heap census, DOT dumps — attach to the root.
// The first non-empty name registered for a ref wins.
func (c *Collector) AddNamedRoot(r mem.Ref, name string) {
	if r == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.roots[r]
	if e == nil {
		e = &rootEntry{}
		c.roots[r] = e
	}
	e.count++
	if e.name == "" {
		e.name = name
	}
}

// RemoveRoot unregisters a root previously added with AddRoot.
func (c *Collector) RemoveRoot(r mem.Ref) {
	if r == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.roots[r]; e != nil {
		if e.count <= 1 {
			delete(c.roots, r)
		} else {
			e.count--
		}
	}
}

// Roots returns a snapshot of the registered roots in the census's form:
// each root's registration count (one per external handle) and
// structure-kind label ("root" when none was given).
func (c *Collector) Roots() map[uint32]census.Root {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rootsLocked()
}

// rootsLocked is Roots for a caller that holds c.mu.
func (c *Collector) rootsLocked() map[uint32]census.Root {
	out := make(map[uint32]census.Root, len(c.roots))
	for r, e := range c.roots {
		name := e.name
		if name == "" {
			name = "root"
		}
		out[uint32(r)] = census.Root{Ref: uint32(r), Name: name, Count: int64(e.count)}
	}
	return out
}

// Result describes one collection pass.
type Result struct {
	// Marked is the number of live objects reachable from the roots.
	Marked int

	// Freed is the number of unreachable live objects reclaimed — with a
	// correct mutator these are exactly the cyclic-garbage objects LFRC
	// cannot reclaim on its own.
	Freed int

	// RCAdjusted counts survivor reference counts that were decremented
	// because a swept object pointed at them.
	RCAdjusted int
}

// Collect runs one stop-the-world mark–sweep pass and returns its result.
// The heap must be quiescent. read loads a cell and decode maps a raw
// pointer-cell word to (referent, count weight), as census.Config.Read and
// Decode do: the RC strategy's link codec, so the mark follows real edges
// and the sweep subtracts each dying link's full weight (its unspent stash
// under split, exactly 1 under figure2). A nil decode reads bare refs.
func (c *Collector) Collect(read func(mem.Addr) uint64, decode func(uint64) (mem.Ref, int64)) Result {
	c.mu.Lock()
	defer c.mu.Unlock()

	sw := census.Garbage(census.Config{Heap: c.h, Read: read, Decode: decode, Roots: c.rootsLocked()})
	res := Result{Marked: sw.Reached}
	for _, l := range sw.Links {
		// Subtract the weight the dying link held, clamping at 0.
		a := c.h.RCAddr(l.To)
		for {
			old := c.h.Load(a)
			nw := uint64(0)
			if old > uint64(l.Weight) {
				nw = old - uint64(l.Weight)
			}
			if old == 0 || c.h.CAS(a, old, nw) {
				break
			}
		}
		res.RCAdjusted++
	}
	for _, g := range sw.Garbage {
		if err := c.h.Free(g); err == nil {
			res.Freed++
		}
	}
	return res
}
