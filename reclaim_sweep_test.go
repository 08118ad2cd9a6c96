package lfrc_test

import (
	"errors"
	"sync"
	"testing"

	"lfrc"
)

// TestReclaimBackendSweep is the cross-backend acceptance gate for the
// Reclaimer seam: the fault/chaos/auditor sweep that has always guarded the
// LFRC backend must pass bit-for-bit identically in structure on the epoch
// backend — same plan (including the reclaim.* points), same seeds, same
// invariants. Reclamation is policy, not safety, so no assertion here is
// allowed to be backend-conditional except the final backend-identity and
// epoch-progress checks. Run under -race by `make check-reclaim`.
func TestReclaimBackendSweep(t *testing.T) {
	const plan = "core.*:p=0.01;reclaim.*:p=0.05;snark.*:p=0.02;queue.*:p=0.02;" +
		"stack.*:p=0.02;set.*:p=0.02;mem.alloc:p=0.002;mem.alloc.slow:p=0.01"
	for _, rec := range []lfrc.Reclaimer{lfrc.ReclaimerLFRC, lfrc.ReclaimerEpoch} {
		rec := rec
		t.Run(rec.String(), func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 20260808} {
				seed := seed
				t.Run("seed="+itoa(seed), func(t *testing.T) {
					sweepOneBackend(t, rec, plan, seed)
				})
			}
		})
	}
}

func sweepOneBackend(t *testing.T, rec lfrc.Reclaimer, plan string, seed uint64) {
	sweepOneConfig(t, rec, 0, plan, seed)
}

// sweepOneConfig runs the fault/chaos/auditor storm on one {reclaimer, rc
// strategy} cell; strat 0 keeps the default (figure2). Extra options (the RC
// sweep passes WithEngine) are appended last.
func sweepOneConfig(t *testing.T, rec lfrc.Reclaimer, strat lfrc.RCStrategy, plan string, seed uint64, extra ...lfrc.Option) {
	opts := []lfrc.Option{
		lfrc.WithReclamation(rec),
		lfrc.WithFaultPlan(plan),
		lfrc.WithFaultSeed(seed),
		lfrc.WithHeapPressurePolicy(lfrc.DefaultHeapPressurePolicy()),
		lfrc.WithObservability(lfrc.ObservabilityOptions{LifecycleEvery: 1}),
	}
	if strat != 0 {
		opts = append(opts, lfrc.WithRCStrategy(strat))
	}
	opts = append(opts, extra...)
	sys, err := lfrc.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got := sys.ReclaimerName(); got != rec.String() {
		t.Fatalf("system runs on %q, want %q", got, rec)
	}
	if strat != 0 {
		if got := sys.RCStrategyName(); got != strat.String() {
			t.Fatalf("system counts with %q, want %q", got, strat)
		}
	}
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.NewQueue()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.NewStack()
	if err != nil {
		t.Fatal(err)
	}
	set, err := sys.NewSet()
	if err != nil {
		t.Fatal(err)
	}

	const workers, opsPer = 4, 400
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			rng := id*0x9E3779B97F4A7C15 + seed
			for i := 0; i < opsPer; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				v := lfrc.Value(rng >> 16 & 0xFFFF)
				var err error
				switch rng % 9 {
				case 0:
					err = d.PushLeft(v)
				case 1:
					err = d.PushRight(v)
				case 2:
					d.PopLeft()
				case 3:
					err = q.Enqueue(v)
				case 4:
					q.Dequeue()
				case 5:
					err = st.Push(v)
				case 6:
					_, err = set.Insert(v)
				case 7:
					st.Pop()
					set.Delete(v)
				case 8:
					// Concurrent maintenance drain: exercises the backend's
					// pop/flush path (and its reclaim.drain / reclaim.epoch
					// fault points) while retirements race it.
					sys.DrainZombies(32)
				}
				if err != nil && !errors.Is(err, lfrc.ErrOutOfMemory) {
					errc <- err
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("worker error: %v", err)
	}

	if vs := sys.AuditPass(); len(vs) != 0 {
		t.Errorf("lifecycle auditor flagged %d violations: %+v", len(vs), vs[0])
	}
	if all := sys.Violations(); len(all) != 0 {
		t.Errorf("%d lifecycle violations accumulated", len(all))
	}
	if audit := sys.Audit(); len(audit) != 0 {
		t.Errorf("rc audit: %v", audit)
	}
	d.Close()
	q.Close()
	st.Close()
	set.Close()
	sys.DrainZombies(0)

	s := sys.Stats()
	if live := s.Heap.LiveObjects; live != 0 {
		t.Errorf("%d objects leaked after close+drain", live)
	}
	if s.Reclaim.Pending != 0 || s.Zombies != 0 {
		t.Errorf("deferred backlog not drained: pending=%d zombies=%d", s.Reclaim.Pending, s.Zombies)
	}
	if s.Reclaim.Backend != rec.String() {
		t.Errorf("Stats.Reclaim.Backend = %q, want %q", s.Reclaim.Backend, rec)
	}
	if strat != 0 && s.RCStrategy != strat.String() {
		t.Errorf("Stats.RCStrategy = %q, want %q", s.RCStrategy, strat)
	}
	if s.Reclaim.Freed < s.Reclaim.Retired {
		t.Errorf("freed %d < retired %d after full drain", s.Reclaim.Freed, s.Reclaim.Retired)
	}
	if s.Fault.Injected == 0 {
		t.Error("sweep injected nothing; plan or workload is off")
	}
	if rec == lfrc.ReclaimerEpoch && s.Reclaim.EpochAdvances == 0 {
		t.Error("epoch backend never advanced its epoch")
	}
}
