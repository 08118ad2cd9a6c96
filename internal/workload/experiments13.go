package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lfrc"
)

// r3Strategies are the two RC strategies experiment R3 contrasts.
var r3Strategies = []lfrc.RCStrategy{lfrc.RCFigure2, lfrc.RCSplit}

// RunR3 compares the figure2 and split reference-count strategies on the two
// workloads where the difference should show (DESIGN.md §3.14):
//
//   - the one-sided O3 deque mix, under the contention observatory: every
//     figure2 Load lands a DCAS on the hot node's rc cell, so the rc role
//     owns a large share of the failures; split Loads borrow from the
//     pointer-colocated stash instead, so the rc share should collapse (what
//     remains migrates to the pointer/rc_ext roles on the cells that are
//     genuinely contended).
//   - the alloc-heavy stack workload of runA3Cell, balanced and uninstrumented,
//     runs interleaved figure2/split/figure2/split...: link lifetimes are one
//     push/pop, so split's stash bookkeeping is all overhead and no
//     amortization — the worst case the 1.05x acceptance bound is set
//     against.
//
// Every cell verifies a clean quiescent Audit before being reported; the
// summary note states both headline numbers.
func RunR3(dur time.Duration) *Table {
	t := &Table{
		ID:     "R3",
		Title:  "RC strategies: figure2 vs split, contention shape and throughput tax",
		Claim:  "splitting the external count into the pointer word removes the rc DCAS hot spot on read-heavy cells without regressing alloc-heavy throughput past 1.05x",
		Header: []string{"workload", "rc strategy", "ops/sec", "dcas failures", "rc share", "rc_ext share", "top-3 roles by failures"},
	}
	const (
		workers = 4
		prefill = 64
		repeats = 5
	)

	// Part 1: one-sided contention profile. A single run's failure counts are
	// a preemption lottery on small machines — tens of contended attempts,
	// so a role's share can swing by tens of points between runs. The role
	// histogram is therefore summed over `repeats` interleaved runs per
	// strategy; the shares stabilize even when any one run is noisy.
	type contProf struct {
		failures int64
		byRole   map[string]int64
		rates    []float64
	}
	profs := map[string]*contProf{}
	for _, strat := range r3Strategies {
		profs[strat.String()] = &contProf{byRole: map[string]int64{}}
	}
	for r := 0; r < repeats; r++ {
		for _, strat := range r3Strategies {
			sys, err := lfrc.New(
				lfrc.WithRCStrategy(strat),
				lfrc.WithObservability(lfrc.ObservabilityOptions{
					Contention:  true,
					SampleEvery: 64,
				}))
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("rc=%s FAILED: %v", strat, err))
				continue
			}
			d, err := sys.NewDeque()
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("rc=%s FAILED: %v", strat, err))
				continue
			}
			res := RunThroughput(d, workers, dur, Mix{PushRight: 1, PopRight: 1}, prefill)
			if vs := sys.Audit(); len(vs) != 0 {
				t.Notes = append(t.Notes, fmt.Sprintf("rc=%s AUDIT FAILED: %s", strat, vs[0]))
			}
			d.Close()

			p := profs[strat.String()]
			for _, c := range sys.ContentionReport().Cells {
				p.failures += c.Failures
				p.byRole[c.Role] += c.Failures
			}
			p.rates = append(p.rates, res.OpsPerSec())
			SetCurrentSystem(sys)
		}
	}
	rcShare := map[string]float64{}
	for _, strat := range r3Strategies {
		p := profs[strat.String()]
		if len(p.rates) == 0 {
			continue
		}
		share := func(role string) float64 {
			if p.failures == 0 {
				return 0
			}
			return 100 * float64(p.byRole[role]) / float64(p.failures)
		}
		rcShare[strat.String()] = share("rc")
		t.AddRow("deque/right_only", strat.String(), o4Median(p.rates), p.failures,
			fmt.Sprintf("%.1f%%", share("rc")),
			fmt.Sprintf("%.1f%%", share("rc_ext")),
			topRoles(p.byRole, 3))
	}

	// Part 2: alloc-heavy balanced throughput, interleaved so run i of each
	// strategy sees near-identical machine state. The stack workload's
	// push/pop bursts make every op an alloc or a free.
	rates := map[string][]float64{}
	for r := 0; r < repeats; r++ {
		for _, strat := range r3Strategies {
			ops, err := runA3Cell(workers, dur, lfrc.WithRCStrategy(strat))
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("rc=%s run %d FAILED: %v", strat, r, err))
				continue
			}
			rates[strat.String()] = append(rates[strat.String()], float64(ops)/dur.Seconds())
		}
	}
	med := map[string]float64{}
	for _, strat := range r3Strategies {
		name := strat.String()
		if len(rates[name]) == 0 {
			continue
		}
		med[name] = o4Median(rates[name])
		t.AddRow("stack/alloc_heavy", name, med[name], "-", "-", "-", "-")
	}

	note := fmt.Sprintf("one-sided rc-role failure share: figure2 %.1f%% -> split %.1f%%",
		rcShare["figure2"], rcShare["split"])
	if med["figure2"] > 0 && med["split"] > 0 {
		note += fmt.Sprintf("; alloc-heavy split/figure2 throughput ratio: %.3f (figure2 time / split time bound: 1.05x)",
			med["figure2"]/med["split"])
	}
	t.Notes = append(t.Notes,
		note,
		fmt.Sprintf("workers=%d prefill=%d repeats=%d, strategies interleaved per repeat; contention rows sum role histograms over all repeats (ops/sec is the median run)", workers, prefill, repeats),
		"rc = an object's count word (figure2 Load DCASes it); rc_ext = a pointer cell's colocated stash (split Load CASes it); failures count contended attempts only",
	)
	return t
}

// runA3Cell runs the alloc-heavy stack workload (the former experiment A3's
// cell) on a default System built with opts: each worker pushes a burst onto
// a shared Treiber stack (every push allocates a node) and pops it back
// (every pop frees one). It returns total push+pop operations, and fails
// unless the closed system conserves its objects, took no heap damage and
// audits clean.
func runA3Cell(workers int, dur time.Duration, opts ...lfrc.Option) (int64, error) {
	sys, err := lfrc.New(opts...)
	if err != nil {
		return 0, err
	}
	st, err := sys.NewStack()
	if err != nil {
		return 0, err
	}

	const burst = 64
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		ops  atomic.Int64
		werr atomic.Value
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n int64
			for !stop.Load() {
				for i := 0; i < burst; i++ {
					if err := st.Push(lfrc.Value(w)<<32 | lfrc.Value(i)); err != nil {
						werr.Store(err)
						stop.Store(true)
						return
					}
				}
				for i := 0; i < burst; i++ {
					if _, ok := st.Pop(); !ok {
						break
					}
				}
				n += 2 * burst
			}
			ops.Add(n)
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	if err, _ := werr.Load().(error); err != nil {
		return 0, err
	}

	st.Close()
	st.Close() // idempotence is part of the contract under test

	stats := sys.Stats()
	if stats.Heap.Allocs != stats.Heap.Frees+stats.Heap.LiveObjects {
		return 0, fmt.Errorf("conservation violated: allocs %d != frees %d + live %d",
			stats.Heap.Allocs, stats.Heap.Frees, stats.Heap.LiveObjects)
	}
	if stats.Heap.LiveObjects != 0 {
		return 0, fmt.Errorf("%d objects leaked after Close", stats.Heap.LiveObjects)
	}
	if stats.Heap.DoubleFrees != 0 || stats.Heap.Corruptions != 0 {
		return 0, fmt.Errorf("heap damage: %d double frees, %d corruptions",
			stats.Heap.DoubleFrees, stats.Heap.Corruptions)
	}
	if audit := sys.Audit(); len(audit) != 0 {
		return 0, fmt.Errorf("audit: %v", audit)
	}
	SetCurrentSystem(sys)
	return ops.Load(), nil
}
