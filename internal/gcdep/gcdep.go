// Package gcdep implements the GC-dependent Snark deque — the left column
// of the LFRC paper's Figure 1, i.e. the algorithm as it exists *before* the
// LFRC methodology is applied.
//
// Nodes are ordinary Go objects reclaimed by Go's garbage collector, which
// supplies exactly what the paper says GC supplies: a free solution to the
// ABA problem (a node's address cannot be recycled while any thread still
// holds it) and no need for reference counts, destructors, or careful local
// pointer management. Sentinels use the original self-pointer convention —
// cycles in garbage are harmless under tracing GC.
//
// DCAS is simulated with striped locks: every pointer location carries a
// stripe id, and a DCAS locks its two stripes in order. The LockingEngine
// used to simulate DCAS the same way on the simulated heap; it now keeps a
// lock bit in each heap cell instead, while this reference row keeps its
// striped locks, so the benchmark's `ref.gcdep_deque_ns` row also carries
// the difference between the two DCAS simulations.
package gcdep

import (
	"sync"
	"sync/atomic"
)

// Value is the payload type carried by the deque.
type Value = uint64

const stripes = 256

// loc is a DCAS-addressable pointer location: the pointer plus its stripe.
type loc struct {
	p  *atomic.Pointer[SNode]
	id uint32
}

// SNode is a deque node (paper Figure 1, lines 1..2, plus stripe ids).
type SNode struct {
	l, r atomic.Pointer[SNode]
	v    atomic.Uint64

	lID, rID uint32
}

// Deque is the GC-dependent Snark deque (paper Figure 1, lines 3..13).
type Deque struct {
	dummy    *SNode
	leftHat  atomic.Pointer[SNode]
	rightHat atomic.Pointer[SNode]

	locks  [stripes]sync.Mutex
	nextID atomic.Uint32

	claiming   bool
	beforeDCAS func()
}

// Option configures a Deque.
type Option func(*Deque)

// WithValueClaiming makes pops claim a node's value with a CAS before
// returning it (same hardening as the LFRC variant; see package snark).
func WithValueClaiming() Option {
	return func(d *Deque) { d.claiming = true }
}

// WithBeforeDCAS installs a hook invoked before every hat DCAS attempt
// (stall injection for experiment E4).
func WithBeforeDCAS(hook func()) Option {
	return func(d *Deque) { d.beforeDCAS = hook }
}

// claimedMark replaces a claimed value; application payloads are unrestricted
// except for this single reserved bit pattern when claiming is enabled.
const claimedMark = ^uint64(0)

// New builds an empty deque (paper lines 4..9): Dummy's pointers are
// self-pointers and both hats point at Dummy.
func New(opts ...Option) *Deque {
	d := &Deque{}
	for _, o := range opts {
		o(d)
	}
	dummy := d.newNode()
	dummy.l.Store(dummy)
	dummy.r.Store(dummy)
	d.dummy = dummy
	d.leftHat.Store(dummy)
	d.rightHat.Store(dummy)
	return d
}

// newNode allocates a node with fresh stripe ids.
func (d *Deque) newNode() *SNode {
	base := d.nextID.Add(2)
	return &SNode{lID: base - 2, rID: base - 1}
}

// hat locations.
func (d *Deque) locLeftHat() loc  { return loc{p: &d.leftHat, id: 0} }
func (d *Deque) locRightHat() loc { return loc{p: &d.rightHat, id: 1} }

// node field locations.
func locL(n *SNode) loc { return loc{p: &n.l, id: n.lID} }
func locR(n *SNode) loc { return loc{p: &n.r, id: n.rID} }

// dcas simulates the hardware instruction over two pointer locations.
func (d *Deque) dcas(l0, l1 loc, old0, old1, new0, new1 *SNode) bool {
	if d.beforeDCAS != nil {
		d.beforeDCAS()
	}
	s0 := l0.id % stripes
	s1 := l1.id % stripes
	if s0 > s1 {
		s0, s1 = s1, s0
	}
	d.locks[s0].Lock()
	if s1 != s0 {
		d.locks[s1].Lock()
	}
	ok := l0.p.Load() == old0 && l1.p.Load() == old1
	if ok {
		l0.p.Store(new0)
		l1.p.Store(new1)
	}
	if s1 != s0 {
		d.locks[s1].Unlock()
	}
	d.locks[s0].Unlock()
	return ok
}

// PushRight appends v on the right (paper lines 14..30).
func (d *Deque) PushRight(v Value) {
	nd := d.newNode() // line 14
	nd.r.Store(d.dummy)
	nd.v.Store(v) // lines 18..19
	for {         // line 20
		rh := d.rightHat.Load() // line 21
		rhR := rh.r.Load()      // line 22
		if rhR == rh {          // line 23
			nd.l.Store(d.dummy)    // line 24
			lh := d.leftHat.Load() // line 25
			if d.dcas(d.locRightHat(), d.locLeftHat(), rh, lh, nd, nd) {
				return // lines 26..27
			}
		} else {
			nd.l.Store(rh) // line 28
			if d.dcas(d.locRightHat(), locR(rh), rh, rhR, nd, nd) {
				return // lines 29..30
			}
		}
	}
}

// PushLeft prepends v on the left (mirror of PushRight).
func (d *Deque) PushLeft(v Value) {
	nd := d.newNode()
	nd.l.Store(d.dummy)
	nd.v.Store(v)
	for {
		lh := d.leftHat.Load()
		lhL := lh.l.Load()
		if lhL == lh {
			nd.r.Store(d.dummy)
			rh := d.rightHat.Load()
			if d.dcas(d.locLeftHat(), d.locRightHat(), lh, rh, nd, nd) {
				return
			}
		} else {
			nd.r.Store(lh)
			if d.dcas(d.locLeftHat(), locL(lh), lh, lhL, nd, nd) {
				return
			}
		}
	}
}

// PopRight removes and returns the rightmost value; ok is false when the
// deque is observed empty (DISC 2000 popRight, original self-pointer
// sentinels).
func (d *Deque) PopRight() (v Value, ok bool) {
	for {
		rh := d.rightHat.Load()
		lh := d.leftHat.Load()
		if rh.r.Load() == rh {
			return 0, false
		}
		if rh == lh {
			if d.dcas(d.locRightHat(), d.locLeftHat(), rh, lh, d.dummy, d.dummy) {
				v, claimed := d.takeValue(rh)
				if !claimed {
					continue
				}
				return v, true
			}
		} else {
			rhL := rh.l.Load()
			if d.dcas(d.locRightHat(), locL(rh), rh, rhL, rhL, rh) {
				v, claimed := d.takeValue(rh)
				if !claimed {
					continue
				}
				rh.r.Store(d.dummy) // break the garbage chain
				return v, true
			}
		}
	}
}

// PopLeft removes and returns the leftmost value (mirror of PopRight).
func (d *Deque) PopLeft() (v Value, ok bool) {
	for {
		lh := d.leftHat.Load()
		rh := d.rightHat.Load()
		if lh.l.Load() == lh {
			return 0, false
		}
		if lh == rh {
			if d.dcas(d.locLeftHat(), d.locRightHat(), lh, rh, d.dummy, d.dummy) {
				v, claimed := d.takeValue(lh)
				if !claimed {
					continue
				}
				return v, true
			}
		} else {
			lhR := lh.r.Load()
			if d.dcas(d.locLeftHat(), locR(lh), lh, lhR, lhR, lh) {
				v, claimed := d.takeValue(lh)
				if !claimed {
					continue
				}
				lh.l.Store(d.dummy)
				return v, true
			}
		}
	}
}

// takeValue mirrors the snark package's claim protocol.
func (d *Deque) takeValue(n *SNode) (v Value, claimed bool) {
	if !d.claiming {
		return n.v.Load(), true
	}
	for {
		cur := n.v.Load()
		if cur == claimedMark {
			return 0, false
		}
		if n.v.CompareAndSwap(cur, claimedMark) {
			return cur, true
		}
	}
}
