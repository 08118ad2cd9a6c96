// Package snark implements the Snark lock-free double-ended queue — the
// DCAS-based deque of Detlefs, Flood, Garthwaite, Martin, Shavit & Steele
// ("Even Better DCAS-Based Concurrent Deques", DISC 2000) — in the
// GC-independent form obtained by the LFRC methodology (PODC 2001, §4 and
// Figure 1, right column).
//
// The deque is a doubly-linked list of SNodes with two hat pointers
// (LeftHat, RightHat) and a Dummy sentinel node. The LFRC transformation
// applied here is exactly the paper's:
//
//   - Step 1/2: nodes carry reference counts managed by package core.
//   - Step 3: sentinel self-pointers become null pointers so that garbage is
//     acyclic (the CyclicSentinels option re-enables the original
//     self-pointers to demonstrate the leak this step prevents — experiment
//     E7).
//   - Step 5/6: every pointer access goes through the LFRC operations, and
//     every local pointer variable is initialized to null and destroyed on
//     every return path.
//
// Historical note: two races in the published Snark algorithm were
// discovered after both papers appeared (Doherty et al., "DCAS is not a
// Silver Bullet for Nonblocking Algorithm Design", SPAA 2004): near-empty
// deques can double-report or lose a value. This package ships the
// *published* algorithm, faithful to what the LFRC paper transformed; the
// WithValueClaiming option adds a per-node claim CAS on the value cell so
// that no value can be returned twice. Neither variant is linearizable: a
// pop stalled between its LeftHat and hat-node link loads can read the null
// a concurrent opposite-side pop writes there, take it for the sentinel and
// report empty while the deque holds a value (internal/linear's
// TestPublishedSnarkFalseEmpty replays it). Memory safety — the LFRC
// contribution — holds in both variants.
package snark

import (
	"fmt"

	"lfrc/internal/contend"
	"lfrc/internal/core"
	"lfrc/internal/fault"
	"lfrc/internal/mem"
	"lfrc/internal/obs"
)

// Value is the application payload carried by a deque node. It must be at
// most MaxValue; the two top bits of a cell are reserved by the DCAS engine
// and one more bit is reserved for the claim marker.
type Value = uint64

const (
	// MaxValue is the largest storable payload.
	MaxValue Value = 1<<61 - 1

	// claimedMark replaces a node's value once a pop has claimed it
	// (WithValueClaiming only).
	claimedMark uint64 = 1 << 61
)

// Field indices of an SNode (paper Figure 1: L, R, V).
const (
	fL = 0 // left neighbour (pointer)
	fR = 1 // right neighbour (pointer)
	fV = 2 // payload (scalar)
)

// Anchor field indices (the Snark object's own pointers).
const (
	aDummy = 0
	aLeft  = 1
	aRight = 2
)

// ErrValueOutOfRange is returned by pushes of payloads above MaxValue. It
// wraps the shared mem.ErrValueRange sentinel so errors.Is matches across
// every structure package and the root API.
var ErrValueOutOfRange = fmt.Errorf("snark: %w", mem.ErrValueRange)

// Types holds the heap type ids the deque uses. Register them once per heap
// and share across all deques on that heap.
type Types struct {
	SNode  mem.TypeID
	Anchor mem.TypeID
}

// RegisterTypes registers the SNode and anchor types on h.
func RegisterTypes(h *mem.Heap) (Types, error) {
	snode, err := h.RegisterType(mem.TypeDesc{
		Name:      "snark.SNode",
		NumFields: 3,
		PtrFields: []int{fL, fR},
	})
	if err != nil {
		return Types{}, fmt.Errorf("snark: register SNode: %w", err)
	}
	anchor, err := h.RegisterType(mem.TypeDesc{
		Name:      "snark.Anchor",
		NumFields: 3,
		PtrFields: []int{aDummy, aLeft, aRight},
	})
	if err != nil {
		return Types{}, fmt.Errorf("snark: register anchor: %w", err)
	}
	return Types{SNode: snode, Anchor: anchor}, nil
}

// MustRegisterTypes is RegisterTypes for static setup; it panics on error.
func MustRegisterTypes(h *mem.Heap) Types {
	ts, err := RegisterTypes(h)
	if err != nil {
		panic(err)
	}
	return ts
}

// Option configures a Deque.
type Option func(*Deque)

// WithCyclicSentinels restores the original Snark sentinel convention —
// self-pointers instead of null — deliberately violating the methodology's
// Step 3 so that popped sentinel nodes form one-node garbage cycles and
// leak. Used by experiment E7 and the gctrace backup-collector tests.
func WithCyclicSentinels() Option {
	return func(d *Deque) { d.cyclic = true }
}

// WithValueClaiming makes pops claim the node's value with a CAS before
// returning it, hardening the published algorithm's post-publication races
// into at-most-once delivery. It does not stop a pop reporting a false empty
// (see the package comment).
func WithValueClaiming() Option {
	return func(d *Deque) { d.claiming = true }
}

// WithBeforeDCAS installs a hook that runs immediately before every hat
// DCAS attempt. Experiments use it to stall a thread mid-operation (E4) at
// the point where the thread holds counted local references but no
// simulated-hardware resources.
func WithBeforeDCAS(hook func()) Option {
	return func(d *Deque) { d.beforeDCAS = hook }
}

// Deque is a GC-independent Snark deque.
type Deque struct {
	rc  *core.RC
	h   *mem.Heap
	ts  Types
	obs *obs.Recorder   // rc's recorder, cached; nil means disabled
	ct  *contend.Table  // rc's contention observatory, cached; nil means disabled
	fj  *fault.Injector // rc's fault injector, cached; nil means disabled

	anchor mem.Ref // counted reference owned by the Deque
	dummyA mem.Addr
	leftA  mem.Addr
	rightA mem.Addr
	dummy  mem.Ref // borrowed: kept alive by the anchor's Dummy field

	cyclic     bool
	claiming   bool
	beforeDCAS func()
	closed     bool
}

// New builds an empty deque (paper Figure 1, lines 34–39): the Dummy node's
// neighbour pointers are the sentinel value (null here, itself under
// WithCyclicSentinels) and both hats point at Dummy.
func New(rc *core.RC, ts Types, opts ...Option) (*Deque, error) {
	d := &Deque{rc: rc, h: rc.Heap(), ts: ts, obs: rc.Observer(), ct: rc.Contention(), fj: rc.Fault()}
	for _, o := range opts {
		o(d)
	}

	anchor, err := rc.NewObject(ts.Anchor)
	if err != nil {
		return nil, fmt.Errorf("snark: allocate anchor: %w", err)
	}
	d.anchor = anchor
	d.dummyA = d.h.FieldAddr(anchor, aDummy)
	d.leftA = d.h.FieldAddr(anchor, aLeft)
	d.rightA = d.h.FieldAddr(anchor, aRight)
	// Register the long-lived anchor cells with the contention observatory
	// so every recording site — even core's generic Load loop — profiles
	// them under their structural names.
	d.ct.Declare(uint32(d.dummyA), contend.RoleAnchor)
	d.ct.Declare(uint32(d.leftA), contend.RoleLeftHat)
	d.ct.Declare(uint32(d.rightA), contend.RoleRightHat)

	dummy, err := rc.NewObject(ts.SNode)
	if err != nil {
		rc.Destroy(anchor)
		return nil, fmt.Errorf("snark: allocate dummy: %w", err)
	}
	rc.StoreAlloc(d.dummyA, dummy) // transfer the new() reference
	d.dummy = dummy
	if d.cyclic {
		rc.Store(d.fieldL(dummy), dummy)
		rc.Store(d.fieldR(dummy), dummy)
	}
	rc.Store(d.leftA, dummy)
	rc.Store(d.rightA, dummy)
	return d, nil
}

// Anchor returns the deque's anchor object, suitable for registering as a
// root with the tracing backup collector (package gctrace). It is 0 after
// Close.
func (d *Deque) Anchor() mem.Ref { return d.anchor }

// fieldL, fieldR and fieldV compute node cell addresses.
func (d *Deque) fieldL(n mem.Ref) mem.Addr { return d.h.FieldAddr(n, fL) }
func (d *Deque) fieldR(n mem.Ref) mem.Addr { return d.h.FieldAddr(n, fR) }
func (d *Deque) fieldV(n mem.Ref) mem.Addr { return d.h.FieldAddr(n, fV) }

// isSentinel implements the paper's Step 3 reinterpretation: a pointer
// marks its node as a sentinel when it is null (or, in the original cyclic
// convention, a self-pointer).
func (d *Deque) isSentinel(ptr, node mem.Ref) bool {
	if d.cyclic {
		return ptr == node
	}
	return ptr == 0
}

// sentinelFor returns the pointer value a pop installs to mark node as a
// sentinel.
func (d *Deque) sentinelFor(node mem.Ref) mem.Ref {
	if d.cyclic {
		return node
	}
	return 0
}

// hookDCAS runs immediately before a hat-DCAS attempt: it fires the test
// hook, then consults the fault injector. A true return means the attempt is
// injected as failed — the caller retries without touching the hats, exactly
// as if the DCAS had lost a race (no contention attribution: nothing moved).
func (d *Deque) hookDCAS(p fault.Point) bool {
	if d.beforeDCAS != nil {
		d.beforeDCAS()
	}
	return d.fj.Inject(p)
}

// attFail reports a failed hat-DCAS attempt to the contention observatory,
// re-reading the comparands to blame the cell that actually moved.
func (d *Deque) attFail(op obs.Kind, a0 mem.Addr, r0 contend.Role, a1 mem.Addr, r1 contend.Role, old0, old1 mem.Ref) {
	if d.ct == nil {
		return
	}
	m0, m1 := d.rc.AttributeLinks(a0, a1, old0, old1)
	d.ct.Attempt(op, uint32(a0), r0, uint32(a1), r1, m0, m1)
}

// attDone reports a contended operation's successful final attempt (and its
// retry-chain length). Uncontended operations record nothing.
func (d *Deque) attDone(op obs.Kind, a0 mem.Addr, r0 contend.Role, a1 mem.Addr, r1 contend.Role, retries uint32) {
	if retries > 0 {
		d.ct.OpDone(op, uint32(a0), r0, uint32(a1), r1, retries)
	}
}

// PushRight appends v on the right (paper Figure 1, lines 49–68).
func (d *Deque) PushRight(v Value) error {
	if v > MaxValue {
		return fmt.Errorf("%w: %#x", ErrValueOutOfRange, v)
	}
	nd, err := d.rc.NewObject(d.ts.SNode) // line 49
	if err != nil {
		return fmt.Errorf("snark: %w", err) // lines 51..53 (FULL)
	}
	var rh, rhR, lh mem.Ref // line 50: locals start null

	t0 := d.obs.Sample()
	d.rc.Store(d.fieldR(nd), d.dummy) // line 54
	d.rc.WordStore(d.fieldV(nd), v)   // line 55
	for retries := uint32(0); ; retries++ {
		d.rc.Load(d.rightA, &rh)      // line 57
		d.rc.Load(d.fieldR(rh), &rhR) // line 58
		if d.isSentinel(rhR, rh) {    // line 59
			d.rc.Store(d.fieldL(nd), d.dummy) // line 60
			d.rc.Load(d.leftA, &lh)           // line 61
			if d.hookDCAS(fault.SnarkPushRight) {
				continue
			}
			if d.rc.DCAS(d.rightA, d.leftA, rh, lh, nd, nd) { // line 62
				d.attDone(obs.KindPushRight, d.rightA, contend.RoleRightHat, d.leftA, contend.RoleLeftHat, retries)
				d.obs.Record(t0, obs.KindPushRight, uint32(nd), 0, true, retries)
				d.rc.Destroy(rhR, nd, rh, lh) // line 63
				return nil                    // line 64
			}
			d.attFail(obs.KindPushRight, d.rightA, contend.RoleRightHat, d.leftA, contend.RoleLeftHat, rh, lh)
		} else {
			d.rc.Store(d.fieldL(nd), rh) // line 65
			if d.hookDCAS(fault.SnarkPushRight) {
				continue
			}
			if d.rc.DCAS(d.rightA, d.fieldR(rh), rh, rhR, nd, nd) { // line 66
				d.attDone(obs.KindPushRight, d.rightA, contend.RoleRightHat, d.fieldR(rh), contend.RoleNodeLink, retries)
				d.obs.Record(t0, obs.KindPushRight, uint32(nd), 0, true, retries)
				d.rc.Destroy(rhR, nd, rh, lh) // line 67
				return nil                    // line 68
			}
			d.attFail(obs.KindPushRight, d.rightA, contend.RoleRightHat, d.fieldR(rh), contend.RoleNodeLink, rh, rhR)
		}
	}
}

// PushLeft prepends v on the left (mirror image of PushRight).
func (d *Deque) PushLeft(v Value) error {
	if v > MaxValue {
		return fmt.Errorf("%w: %#x", ErrValueOutOfRange, v)
	}
	nd, err := d.rc.NewObject(d.ts.SNode)
	if err != nil {
		return fmt.Errorf("snark: %w", err)
	}
	var lh, lhL, rh mem.Ref

	t0 := d.obs.Sample()
	d.rc.Store(d.fieldL(nd), d.dummy)
	d.rc.WordStore(d.fieldV(nd), v)
	for retries := uint32(0); ; retries++ {
		d.rc.Load(d.leftA, &lh)
		d.rc.Load(d.fieldL(lh), &lhL)
		if d.isSentinel(lhL, lh) {
			d.rc.Store(d.fieldR(nd), d.dummy)
			d.rc.Load(d.rightA, &rh)
			if d.hookDCAS(fault.SnarkPushLeft) {
				continue
			}
			if d.rc.DCAS(d.leftA, d.rightA, lh, rh, nd, nd) {
				d.attDone(obs.KindPushLeft, d.leftA, contend.RoleLeftHat, d.rightA, contend.RoleRightHat, retries)
				d.obs.Record(t0, obs.KindPushLeft, uint32(nd), 0, true, retries)
				d.rc.Destroy(lhL, nd, lh, rh)
				return nil
			}
			d.attFail(obs.KindPushLeft, d.leftA, contend.RoleLeftHat, d.rightA, contend.RoleRightHat, lh, rh)
		} else {
			d.rc.Store(d.fieldR(nd), lh)
			if d.hookDCAS(fault.SnarkPushLeft) {
				continue
			}
			if d.rc.DCAS(d.leftA, d.fieldL(lh), lh, lhL, nd, nd) {
				d.attDone(obs.KindPushLeft, d.leftA, contend.RoleLeftHat, d.fieldL(lh), contend.RoleNodeLink, retries)
				d.obs.Record(t0, obs.KindPushLeft, uint32(nd), 0, true, retries)
				d.rc.Destroy(lhL, nd, lh, rh)
				return nil
			}
			d.attFail(obs.KindPushLeft, d.leftA, contend.RoleLeftHat, d.fieldL(lh), contend.RoleNodeLink, lh, lhL)
		}
	}
}

// PopRight removes and returns the rightmost value; ok is false when the
// deque is observed empty. The structure follows the DISC 2000 popRight with
// the LFRC transformation applied: the one-node case swings both hats back
// to Dummy with a single DCAS, the general case swings RightHat left while
// marking the popped node as a sentinel.
func (d *Deque) PopRight() (v Value, ok bool) {
	var rh, lh, rhR, rhL mem.Ref
	t0 := d.obs.Sample()
	for retries := uint32(0); ; retries++ {
		d.rc.Load(d.rightA, &rh)
		d.rc.Load(d.leftA, &lh)
		d.rc.Load(d.fieldR(rh), &rhR)
		if d.isSentinel(rhR, rh) { // hat rests on a sentinel: empty
			d.obs.Record(t0, obs.KindPopRight, 0, 0, false, retries)
			d.rc.Destroy(rh, lh, rhR, rhL)
			return 0, false
		}
		if rh == lh { // exactly one (apparent) node
			if d.hookDCAS(fault.SnarkPopRight) {
				continue
			}
			if d.rc.DCAS(d.rightA, d.leftA, rh, lh, d.dummy, d.dummy) {
				d.attDone(obs.KindPopRight, d.rightA, contend.RoleRightHat, d.leftA, contend.RoleLeftHat, retries)
				v, claimed := d.takeValue(rh)
				if !claimed {
					continue
				}
				d.obs.Record(t0, obs.KindPopRight, uint32(rh), 0, true, retries)
				d.rc.Destroy(rh, lh, rhR, rhL)
				return v, true
			}
			d.attFail(obs.KindPopRight, d.rightA, contend.RoleRightHat, d.leftA, contend.RoleLeftHat, rh, lh)
		} else {
			d.rc.Load(d.fieldL(rh), &rhL)
			if d.hookDCAS(fault.SnarkPopRight) {
				continue
			}
			if d.rc.DCAS(d.rightA, d.fieldL(rh), rh, rhL, rhL, d.sentinelFor(rh)) {
				d.attDone(obs.KindPopRight, d.rightA, contend.RoleRightHat, d.fieldL(rh), contend.RoleNodeLink, retries)
				v, claimed := d.takeValue(rh)
				if !claimed {
					continue
				}
				// Break any garbage chain hanging off the popped
				// node (original line "rh->R = Dummy").
				d.rc.Store(d.fieldR(rh), d.dummy)
				d.obs.Record(t0, obs.KindPopRight, uint32(rh), 0, true, retries)
				d.rc.Destroy(rh, lh, rhR, rhL)
				return v, true
			}
			d.attFail(obs.KindPopRight, d.rightA, contend.RoleRightHat, d.fieldL(rh), contend.RoleNodeLink, rh, rhL)
		}
	}
}

// PopLeft removes and returns the leftmost value (mirror of PopRight).
func (d *Deque) PopLeft() (v Value, ok bool) {
	var lh, rh, lhL, lhR mem.Ref
	t0 := d.obs.Sample()
	for retries := uint32(0); ; retries++ {
		d.rc.Load(d.leftA, &lh)
		d.rc.Load(d.rightA, &rh)
		d.rc.Load(d.fieldL(lh), &lhL)
		if d.isSentinel(lhL, lh) {
			d.obs.Record(t0, obs.KindPopLeft, 0, 0, false, retries)
			d.rc.Destroy(lh, rh, lhL, lhR)
			return 0, false
		}
		if lh == rh {
			if d.hookDCAS(fault.SnarkPopLeft) {
				continue
			}
			if d.rc.DCAS(d.leftA, d.rightA, lh, rh, d.dummy, d.dummy) {
				d.attDone(obs.KindPopLeft, d.leftA, contend.RoleLeftHat, d.rightA, contend.RoleRightHat, retries)
				v, claimed := d.takeValue(lh)
				if !claimed {
					continue
				}
				d.obs.Record(t0, obs.KindPopLeft, uint32(lh), 0, true, retries)
				d.rc.Destroy(lh, rh, lhL, lhR)
				return v, true
			}
			d.attFail(obs.KindPopLeft, d.leftA, contend.RoleLeftHat, d.rightA, contend.RoleRightHat, lh, rh)
		} else {
			d.rc.Load(d.fieldR(lh), &lhR)
			if d.hookDCAS(fault.SnarkPopLeft) {
				continue
			}
			if d.rc.DCAS(d.leftA, d.fieldR(lh), lh, lhR, lhR, d.sentinelFor(lh)) {
				d.attDone(obs.KindPopLeft, d.leftA, contend.RoleLeftHat, d.fieldR(lh), contend.RoleNodeLink, retries)
				v, claimed := d.takeValue(lh)
				if !claimed {
					continue
				}
				d.rc.Store(d.fieldL(lh), d.dummy)
				d.obs.Record(t0, obs.KindPopLeft, uint32(lh), 0, true, retries)
				d.rc.Destroy(lh, rh, lhL, lhR)
				return v, true
			}
			d.attFail(obs.KindPopLeft, d.leftA, contend.RoleLeftHat, d.fieldR(lh), contend.RoleNodeLink, lh, lhR)
		}
	}
}

// takeValue reads a popped node's payload. Without claiming it simply reads
// the cell. With claiming it CASes the cell to claimedMark; claimed is false
// if another pop got there first, in which case the caller retries the whole
// operation.
func (d *Deque) takeValue(n mem.Ref) (v Value, claimed bool) {
	if !d.claiming {
		return d.rc.WordLoad(d.fieldV(n)), true
	}
	for {
		cur := d.rc.WordLoad(d.fieldV(n))
		if cur == claimedMark {
			return 0, false
		}
		if d.rc.WordCAS(d.fieldV(n), cur, claimedMark) {
			return cur, true
		}
	}
}

// Close drains the deque, severs the anchor's pointers (paper Figure 1,
// lines 40–44, the added destructor) and releases the anchor. It must not
// run concurrently with other operations; the paper makes the same demand of
// the Snark destructor.
func (d *Deque) Close() {
	if d.closed {
		return
	}
	d.closed = true
	for {
		if _, ok := d.PopLeft(); !ok {
			break
		}
	}
	d.rc.Store(d.dummyA, 0)
	d.rc.Store(d.leftA, 0)
	d.rc.Store(d.rightA, 0)
	d.rc.Destroy(d.anchor)
	d.anchor = 0
	d.dummy = 0
}
