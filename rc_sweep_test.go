package lfrc_test

import (
	"testing"

	"lfrc"
)

// TestRCStrategySweep is the cross-strategy acceptance gate for the RCStrategy
// seam: the fault/chaos/auditor storm of TestReclaimBackendSweep runs over
// every {figure2, split} x {locking, mcas} cell. The count protocol is safety
// (a lost decrement leaks, a stray one frees live memory), so no assertion
// here is strategy-conditional: both strategies must come out of the same
// storm with a clean lifecycle auditor, a clean quiescent RC audit, and an
// empty heap. Run under -race by `make check-rc`.
func TestRCStrategySweep(t *testing.T) {
	for _, strat := range []lfrc.RCStrategy{lfrc.RCFigure2, lfrc.RCSplit} {
		for _, eng := range []lfrc.Engine{lfrc.EngineLocking, lfrc.EngineMCAS} {
			t.Run(strat.String()+"/"+eng.String()+"/"+backend, func(t *testing.T) {
				for _, seed := range []uint64{1, 20260808} {
					t.Run("seed="+itoa(seed), func(t *testing.T) {
						sweepOneConfig(t, strat, sweepPlan, seed, lfrc.WithEngine(eng))
					})
				}
			})
		}
	}
}
