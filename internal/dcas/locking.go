package dcas

import (
	"slices"
	"sync"

	"lfrc/internal/mem"
)

const lockStripes = 256

// LockingEngine models a hardware DCAS with an address-striped lock table:
// the critical section stands in for the bus lock the original instruction
// used. Reads bypass the locks entirely — single-word atomic loads commute
// with DCAS when observed one word at a time — so only writers pay for the
// simulation.
type LockingEngine struct {
	h     CellStore
	locks [lockStripes]sync.Mutex
}

var _ Engine = (*LockingEngine)(nil)

// NewLocking returns a LockingEngine over h.
func NewLocking(h CellStore) *LockingEngine {
	return &LockingEngine{h: h}
}

// Name implements Engine.
func (e *LockingEngine) Name() string { return "locking" }

// stripeOf maps an address onto a lock index with a multiplicative hash so
// that neighbouring cells of one object spread across stripes.
func stripeOf(a mem.Addr) uint32 {
	return uint32((uint64(a) * 0x9E3779B97F4A7C15) >> 56)
}

// Read implements Engine.
func (e *LockingEngine) Read(a mem.Addr) uint64 { return e.h.Load(a) }

// Write implements Engine.
func (e *LockingEngine) Write(a mem.Addr, v uint64) {
	s := stripeOf(a)
	e.locks[s].Lock()
	e.h.Store(a, v)
	e.locks[s].Unlock()
}

// CAS implements Engine.
func (e *LockingEngine) CAS(a mem.Addr, old, new uint64) bool {
	s := stripeOf(a)
	e.locks[s].Lock()
	ok := e.h.Load(a) == old
	if ok {
		e.h.Store(a, new)
	}
	e.locks[s].Unlock()
	return ok
}

// NCAS atomically compares-and-swaps up to four distinct locations,
// mirroring MCASEngine.NCAS on the modeled hardware. Same argument
// validation rules apply.
func (e *LockingEngine) NCAS(addrs []mem.Addr, olds, news []uint64) bool {
	n := len(addrs)
	if n == 0 || n > maxNCAS || len(olds) != n || len(news) != n {
		return false
	}
	if n == 1 {
		return e.CAS(addrs[0], olds[0], news[0])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if addrs[i] == addrs[j] {
				return false
			}
		}
	}
	// Lock the deduplicated stripes in ascending order.
	stripes := make([]uint32, 0, maxNCAS)
	for _, a := range addrs {
		stripes = append(stripes, stripeOf(a))
	}
	slices.Sort(stripes)
	stripes = slices.Compact(stripes)
	for _, s := range stripes {
		e.locks[s].Lock()
	}
	ok := true
	for i := 0; i < n; i++ {
		if e.h.Load(addrs[i]) != olds[i] {
			ok = false
			break
		}
	}
	if ok {
		for i := 0; i < n; i++ {
			e.h.Store(addrs[i], news[i])
		}
	}
	for i := len(stripes) - 1; i >= 0; i-- {
		e.locks[stripes[i]].Unlock()
	}
	return ok
}

// DCAS implements Engine.
func (e *LockingEngine) DCAS(a0, a1 mem.Addr, old0, old1, new0, new1 uint64) bool {
	if a0 == a1 {
		if old0 != old1 || new0 != new1 {
			return false
		}
		return e.CAS(a0, old0, new0)
	}
	s0, s1 := stripeOf(a0), stripeOf(a1)
	if s0 > s1 {
		s0, s1 = s1, s0
	}
	e.locks[s0].Lock()
	if s1 != s0 {
		e.locks[s1].Lock()
	}
	ok := e.h.Load(a0) == old0 && e.h.Load(a1) == old1
	if ok {
		e.h.Store(a0, new0)
		e.h.Store(a1, new1)
	}
	if s1 != s0 {
		e.locks[s1].Unlock()
	}
	e.locks[s0].Unlock()
	return ok
}
