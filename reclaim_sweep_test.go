package lfrc_test

import (
	"errors"
	"sync"
	"testing"

	"lfrc"
)

// sweepPlan arms every fault point the structures and the reclaimer reach.
const sweepPlan = "core.*:p=0.01;reclaim.*:p=0.05;snark.*:p=0.02;queue.*:p=0.02;" +
	"stack.*:p=0.02;set.*:p=0.02;mem.alloc:p=0.002;mem.alloc.slow:p=0.01"

// backend names the reclaimer as Stats.Reclaim.Backend reports it. The
// reclamation gates run one subtest level named after it.
const backend = "lfrc"

// TestReclaimBackendSweep is the reclamation gate under faults: the
// fault/chaos/auditor storm with an incremental-destroy budget, so releases
// park zombies while concurrent drains race them, and the post-close drain
// runs every closed structure through the zombie stack object by object, so
// the stack's push and pop fault points fire at system level. Run under
// -race by `make check-fault`.
func TestReclaimBackendSweep(t *testing.T) {
	t.Run(backend, func(t *testing.T) {
		for _, seed := range []uint64{1, 7, 20260808} {
			t.Run("seed="+itoa(seed), func(t *testing.T) {
				s := sweepOneConfig(t, 0, sweepPlan, seed, lfrc.WithIncrementalDestroy(4))
				if s.Reclaim.Parked == 0 {
					t.Error("sweep parked no zombies; the budget never bit")
				}
				fired := map[string]uint64{}
				for _, p := range s.Fault.Points {
					fired[p.Name] = p.Fires
					if p.Name == "reclaim.push" || p.Name == "reclaim.drain" {
						t.Logf("%s: %d attempts, %d fired", p.Name, p.Attempts, p.Fires)
					}
				}
				for _, point := range []string{"reclaim.push", "reclaim.drain"} {
					if fired[point] == 0 {
						t.Errorf("fault point %s never fired; the zombie stack saw too little traffic", point)
					}
				}
			})
		}
	})
}

// sweepOneConfig runs the fault/chaos/auditor storm on one rc strategy
// (strat 0 keeps the facade default, split) and returns the final Stats. Extra
// options (the RC sweep passes WithEngine) are appended last.
func sweepOneConfig(t *testing.T, strat lfrc.RCStrategy, plan string, seed uint64, extra ...lfrc.Option) lfrc.Stats {
	opts := []lfrc.Option{
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
					// Concurrent maintenance drain: exercises the zombie
					// stack's pop path (and its reclaim.drain fault point)
					// while retirements race it.
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
	// Drain the backlog one object per call: each step frees one zombie and
	// parks its newly dead child, so under a destroy budget every closed
	// chain passes through the zombie stack.
	for sys.DrainZombies(1) > 0 {
	}

	s := sys.Stats()
	if live := s.Heap.LiveObjects; live != 0 {
		t.Errorf("%d objects leaked after close+drain", live)
	}
	if s.Reclaim.Pending != 0 || s.Zombies != 0 {
		t.Errorf("deferred backlog not drained: pending=%d zombies=%d", s.Reclaim.Pending, s.Zombies)
	}
	if s.Reclaim.Backend != backend {
		t.Errorf("Stats.Reclaim.Backend = %q, want %q", s.Reclaim.Backend, backend)
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
	return s
}

// TestReclamationBackends runs a queue workload on both engines and checks
// the Reclaim stats block: after Close and a full drain, no zombies remain,
// every alloc was freed, and the block names the backend.
func TestReclamationBackends(t *testing.T) {
	t.Run(backend, func(t *testing.T) {
		for name, sys := range systems(t) {
			t.Run(name, func(t *testing.T) {
				q, err := sys.NewQueue()
				if err != nil {
					t.Fatal(err)
				}
				for v := lfrc.Value(1); v <= 200; v++ {
					if err := q.Enqueue(v); err != nil {
						t.Fatal(err)
					}
				}
				for v := lfrc.Value(1); v <= 200; v++ {
					got, ok := q.Dequeue()
					if !ok || got != v {
						t.Fatalf("Dequeue = (%d,%v), want (%d,true)", got, ok, v)
					}
				}
				q.Close()
				sys.DrainZombies(0)
				st := sys.Stats()
				if st.Reclaim.Backend != backend {
					t.Errorf("Stats().Reclaim.Backend = %q, want %q", st.Reclaim.Backend, backend)
				}
				if st.Zombies != 0 || st.Reclaim.Pending != 0 {
					t.Errorf("zombies = %d, pending = %d after full drain, want 0",
						st.Zombies, st.Reclaim.Pending)
				}
				if st.Heap.LiveObjects != 0 {
					t.Errorf("LiveObjects = %d after Close+drain, want 0", st.Heap.LiveObjects)
				}
				// Freed counts cascaded descendants too, so it can exceed
				// Retired; with nothing pending it must at least cover
				// everything ever retired.
				if st.Reclaim.Freed < st.Reclaim.Retired {
					t.Errorf("freed %d < retired %d with empty backlog",
						st.Reclaim.Freed, st.Reclaim.Retired)
				}
			})
		}
	})
}
