package core

import (
	"lfrc/internal/fault"
	"lfrc/internal/mem"
	"lfrc/internal/obs"
)

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
	if !rc.fj.Inject(fault.CoreDCAS) {
		if d0, ok := rc.strat.SwingMixed(rc, a0, old0, new0, a1, old1, new1); ok {
			rc.count(tDCAS + rc.releaseWord(d0))
			return true
		}
	}
	rc.count(tDCAS + rc.releaseWeight(new0, lc))
	return false
}
