package core

import (
	"lfrc/internal/fault"
	"lfrc/internal/mem"
	"lfrc/internal/obs"
)

// This file implements the extension the paper's §2.1 invites: "it should
// be straightforward to extend our methodology to support other operations
// such as load-linked and store-conditional", plus a mixed pointer/scalar
// DCAS that structures like the DCAS-based sorted list (package dlist) need.
//
// LL/SC emulated over CAS is normally unsound because of ABA: the location
// may change and change back between the LL and the SC. Under LFRC that
// cannot happen for pointer cells — the LL holds a counted reference to the
// linked object, so the object cannot be freed and its address cannot be
// recycled while the link is live. CAS against the linked value is therefore
// a faithful SC. (This is the same observation that makes LFRCCAS safe, §1.)

// Link is an outstanding load-link: the location, the pointer value
// observed, and the counted reference that pins it. A Link must be ended by
// exactly one of StoreConditional or Unlink.
type Link struct {
	addr  mem.Addr
	value mem.Ref
	live  bool
}

// Value returns the pointer value the LL observed.
func (l *Link) Value() mem.Ref { return l.value }

// LoadLinked performs LFRCLoadLinked on the pointer cell at a: it loads the
// pointer, takes a counted reference to its referent (via the same DCAS
// protocol as Load), and records the link for a later StoreConditional.
func (rc *RC) LoadLinked(a mem.Addr) Link {
	var dst mem.Ref
	rc.Load(a, &dst)
	return Link{addr: a, value: dst, live: true}
}

// StoreConditional performs LFRCStoreConditional: it installs v in the
// linked cell if and only if the cell still holds the linked value. Whether
// or not it succeeds, the link is consumed. The reference-count discipline
// matches LFRCCAS: v's count is raised before the attempt and compensated on
// failure; on success the displaced pointer's count is dropped.
func (rc *RC) StoreConditional(l *Link, v mem.Ref) bool {
	if !l.live {
		return false
	}
	ok := rc.CAS(l.addr, l.value, v)
	rc.Destroy(l.value)
	l.live = false
	l.value = 0
	return ok
}

// Unlink abandons an outstanding link, releasing the reference it pinned.
func (rc *RC) Unlink(l *Link) {
	if !l.live {
		return
	}
	rc.Destroy(l.value)
	l.live = false
	l.value = 0
}

// DCASMixed is LFRCDCAS where location a0 is a pointer cell (participating
// in reference counting) and location a1 is a scalar cell (outside the
// counting protocol, e.g. a deletion mark). It atomically compares both and
// swaps both, maintaining counts only for the pointer side. The scalar
// values must fit mem.ValueMask.
//
// The paper's operation set does not include mixed DCAS; it is the natural
// generalization its §2.1 anticipates, and the DCAS-based sorted list
// (package dlist) is its client.
func (rc *RC) DCASMixed(a0 mem.Addr, old0, new0 mem.Ref, a1 mem.Addr, old1, new1 uint64) bool {
	lc := rc.strat.LinkCredit()
	if new0 != 0 {
		rc.addToRC(obs.KindDCAS, new0, lc)
	}
	st := rc.st()
	st.dcasOps.Add(1)
	if !rc.fj.Inject(fault.CoreDCAS) {
		if d0, ok := rc.strat.SwingMixed(rc, a0, old0, new0, a1, old1, new1); ok {
			rc.releaseWord(st, d0)
			return true
		}
	}
	rc.releaseWeight(st, new0, lc)
	return false
}
