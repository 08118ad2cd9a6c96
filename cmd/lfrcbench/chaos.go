package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lfrc"
	"lfrc/internal/workload"
)

// runChaos is lfrcbench's fault-injection mode (-fault-plan): it builds one
// system with the plan armed, the lifecycle ledger sampling every object, and
// the default heap-pressure policy; hammers all four structures from workers
// goroutines for dur; then audits the survivors and prints the injection
// accounting. The exit status is the verdict: any lifecycle violation,
// rc-audit discrepancy, or leaked object fails the run.
//
// The firing schedule is replayable: the fault_seed= / fault_plan= /
// fault_schedule= lines identify exactly which attempts were failed, and
// rerunning with the same seed and plan re-fails the same attempt ordinals at
// every point.
//
// A FAIL additionally captures a diagnostic bundle (to bundlePath, or an
// auto-generated name) and echoes it as a machine-readable "bundle=" line so
// harnesses can hand the black box straight to cmd/lfrcdoctor.
func runChaos(stdout io.Writer, eng lfrc.Engine, strat lfrc.RCStrategy, plan string, seed uint64, dur time.Duration, workers int, bundlePath string, destroyBudget int) error {
	opts := []lfrc.Option{
		lfrc.WithEngine(eng),
		lfrc.WithRCStrategy(strat),
		lfrc.WithFaultPlan(plan),
		lfrc.WithFaultSeed(seed),
		lfrc.WithHeapPressurePolicy(lfrc.DefaultHeapPressurePolicy()),
		lfrc.WithObservability(lfrc.ObservabilityOptions{
			LifecycleEvery: 1,
			SampleEvery:    64,
		}),
		// The telemetry timeline rides along at a chaos-friendly cadence
		// (~10ms instead of the default): chaos runs last fractions of a
		// second, and the watchdog's windowed rules (limbo_stall needs ten
		// qualifying samples) must be able to fire inside one. A -metrics
		// chaos run serves the same samples live on
		// /debug/lfrc/timeline.json — with -destroy-budget, the zombie
		// backlog rising and draining is the headline trajectory.
		lfrc.WithTimeline(lfrc.TimelineOptions{Interval: 10 * time.Millisecond}),
		// Probe the census more often than the always-on default for the
		// same reason: short run, want at least a few cross-checks.
		lfrc.WithWatchdog(lfrc.WatchdogOptions{CensusProbeEvery: 16}),
	}
	if destroyBudget > 0 {
		opts = append(opts, lfrc.WithIncrementalDestroy(destroyBudget))
	}
	sys, err := lfrc.New(opts...)
	if err != nil {
		return err
	}
	defer sys.Close()
	// capture writes the black box: a bundle carrying the timeline,
	// incidents, census and fault schedule that explain the run, diagnosable
	// offline by cmd/lfrcdoctor. Every FAIL captures one (auto-named when
	// -bundle is unset); an explicit -bundle path is written even on PASS so
	// harnesses can always collect the capsule.
	capture := func() {
		path := bundlePath
		if path == "" {
			path = fmt.Sprintf("lfrc-chaos-%s-%s.tar.gz", eng, sys.RCStrategyName())
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(stdout, "bundle_error=%v\n", err)
			return
		}
		werr := sys.WriteBundle(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stdout, "bundle_error=%v\n", werr)
			return
		}
		fmt.Fprintf(stdout, "bundle=%s\n", path)
	}
	fail := func(verdict error) error {
		capture()
		return verdict
	}
	// Publish for the -metrics mux: a chaos run is exactly when live
	// /debug/lfrc/timeline.json (and the rest of the surface) matters.
	workload.SetCurrentSystem(sys)

	d, err := sys.NewDeque()
	if err != nil {
		return err
	}
	q, err := sys.NewQueue()
	if err != nil {
		return err
	}
	st, err := sys.NewStack()
	if err != nil {
		return err
	}
	set, err := sys.NewSet()
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "chaos: engine=%s rc=%s workers=%d dur=%v\n", eng, sys.RCStrategyName(), workers, dur)
	fmt.Fprintf(stdout, "fault_seed=%d\n", seed)
	fmt.Fprintf(stdout, "fault_plan=%s\n", plan)

	var ops, oom atomic.Int64
	stop := make(chan struct{})
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			rng := id*0x9E3779B97F4A7C15 + 1
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				v := lfrc.Value(rng >> 16 & 0xFFFF)
				var err error
				switch rng % 8 {
				case 0:
					err = d.PushLeft(v)
				case 1:
					err = d.PushRight(v)
				case 2:
					_, _ = d.PopLeft()
				case 3:
					err = q.Enqueue(v)
				case 4:
					_, _ = q.Dequeue()
				case 5:
					err = st.Push(v)
				case 6:
					_, err = set.Insert(v)
					if rng%2 == 0 {
						set.Delete(v)
					}
				case 7:
					if _, ok := st.Pop(); !ok {
						_, _ = d.PopRight()
					}
				}
				ops.Add(1)
				if err != nil {
					// Heap exhaustion (genuine or injected) is an expected
					// chaos outcome; anything else is a bug.
					if errors.Is(err, lfrc.ErrOutOfMemory) {
						oom.Add(1)
						continue
					}
					errc <- fmt.Errorf("worker %d: %w", id, err)
					return
				}
			}
		}(uint64(w))
	}
	timer := time.NewTimer(dur)
	select {
	case err := <-errc:
		close(stop)
		wg.Wait()
		return fail(err)
	case <-timer.C:
		close(stop)
		wg.Wait()
	}
	select {
	case err := <-errc:
		return fail(err)
	default:
	}

	// Quiescent now: audit, take the pre-teardown census, then tear
	// everything down and demand an empty heap — with the post-teardown
	// census as the ground-truth leak verdict (a cycle would survive both
	// the closes and the drain with its counts still up).
	violations := len(sys.AuditPass()) + len(sys.Violations())
	rcAudit := sys.Audit()
	preCensus := sys.Census()
	d.Close()
	q.Close()
	st.Close()
	set.Close()
	sys.DrainZombies(0)
	live := sys.Stats().Heap.LiveObjects
	postCensus := sys.Census()

	s := sys.Stats()
	fmt.Fprintf(stdout, "\n%-20s %12s %12s\n", "point", "attempts", "injected")
	for _, p := range s.Fault.Points {
		fmt.Fprintf(stdout, "%-20s %12d %12d\n", p.Name, p.Attempts, p.Fires)
	}
	fmt.Fprintf(stdout, "ops=%d oom=%d injected_total=%d\n", ops.Load(), oom.Load(), s.Fault.Injected)
	fmt.Fprintf(stdout, "degraded: retries=%d recoveries=%d exhaustions=%d zombies_drained=%d\n",
		s.Degraded.Retries, s.Degraded.Recoveries, s.Degraded.Exhaustions, s.Degraded.ZombiesDrained)

	// Machine-readable replay identity: the tail of the firing schedule.
	sched := sys.FaultSchedule()
	const tail = 32
	if len(sched) > tail {
		sched = sched[len(sched)-tail:]
	}
	var sb strings.Builder
	for i, f := range sched {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s@%d", f.Name, f.Attempt)
	}
	fmt.Fprintf(stdout, "fault_schedule=%s\n", sb.String())

	// The census diff across teardown: everything the structures held
	// should move from reachable to freed, leaving nothing unreachable.
	cd := lfrc.CensusDiff(preCensus, postCensus)
	fmt.Fprintf(stdout, "census: pre live=%d reachable=%d limbo=%d; post live=%d unreachable=%d limbo=%d cycles=%d new_cycles=%d rc_mismatches=%d\n",
		preCensus.LiveObjects, preCensus.Reachable.Objects, preCensus.Limbo.Objects,
		postCensus.LiveObjects, postCensus.Unreachable.Objects, postCensus.Limbo.Objects,
		postCensus.CycleCount, cd.NewCycles, postCensus.RCMismatchCount)

	switch {
	case violations > 0:
		return fail(fmt.Errorf("chaos: %d lifecycle violations (see postmortems)", violations))
	case len(rcAudit) > 0:
		return fail(fmt.Errorf("chaos: rc audit failed: %s", strings.Join(rcAudit, "; ")))
	case postCensus.CycleCount > 0:
		return fail(fmt.Errorf("chaos: census found %d cycle leaks holding %d bytes (first: %v)",
			postCensus.CycleCount, postCensus.CycleBytes, cycleMembers(postCensus.Cycles[0])))
	case postCensus.Unreachable.Objects > 0:
		return fail(fmt.Errorf("chaos: census found %d unreachable objects (%d bytes) after close+drain",
			postCensus.Unreachable.Objects, postCensus.Unreachable.Bytes))
	case live != 0:
		return fail(fmt.Errorf("chaos: %d objects leaked after close", live))
	}
	if bundlePath != "" {
		capture()
	}
	fmt.Fprintln(stdout, "chaos: PASS (0 violations, clean rc audit, clean census, 0 leaked objects)")
	return nil
}
