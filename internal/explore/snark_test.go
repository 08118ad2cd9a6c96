package explore

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"

	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
	"lfrc/internal/snark"
)

// deep selects the schedule-space hunt `make explore` runs: the paper's cell
// (locking, figure2) at 4 preemptions and up to 200k schedules per scenario,
// over the tier-1 and the deep scenarios, and every other cell at the tier-1
// budget. Without it only the paper's cell and lfrc.New's default cell
// (locking-split) run.
var deep = flag.Bool("deep", false, "explore every Snark configuration cell, the paper's one at depth")

// snarkCell is one {engine}×{strategy} configuration the Snark scenarios
// run in.
type snarkCell struct {
	engine   string // a key of cellEngines
	strategy core.StrategyKind
}

// String names the cell as internal/linear's configMatrix does: the engine,
// then "-split" under the split strategy, e.g. "mcas-split".
func (c snarkCell) String() string {
	if c.strategy == core.StrategySplit {
		return c.engine + "-split"
	}
	return c.engine
}

// snarkCells lists every configuration cell: the paper's cell (internal/core's
// default) first, then locking-split (lfrc.New's default).
func snarkCells() []snarkCell {
	var cells []snarkCell
	for _, e := range []string{"locking", "mcas"} {
		for _, s := range []core.StrategyKind{core.StrategyFigure2, core.StrategySplit} {
			cells = append(cells, snarkCell{e, s})
		}
	}
	return cells
}

// dequeOp is one deque operation in a thread's script.
type dequeOp struct {
	push  bool
	left  bool
	value uint64
}

// popL/popR/pushL/pushR build scripts.
func popL() dequeOp          { return dequeOp{left: true} }
func popR() dequeOp          { return dequeOp{} }
func pushR(v uint64) dequeOp { return dequeOp{push: true, value: v} }
func pushL(v uint64) dequeOp { return dequeOp{push: true, left: true, value: v} }

// dequeScenario prefills a deque and runs one script per thread.
type dequeScenario struct {
	name    string
	prefill []uint64
	threads [][]dequeOp
}

// snarkScenarios are small near-empty scenarios: the neighbourhood of the
// Doherty et al. (SPAA 2004) races in the published algorithm.
var snarkScenarios = []dequeScenario{
	{"2elem popL+popR", []uint64{1, 2}, [][]dequeOp{{popL()}, {popR()}}},
	{"1elem popL+popR", []uint64{1}, [][]dequeOp{{popL()}, {popR()}}},
	{"1elem popL+popR+pushR", []uint64{1}, [][]dequeOp{{popL()}, {popR()}, {pushR(2)}}},
	{"popL+pushLpopL", []uint64{1}, [][]dequeOp{{popL()}, {pushL(2), popL()}}},
	{"2elem popLpopL+popR", []uint64{1, 2}, [][]dequeOp{{popL(), popL()}, {popR()}}},
}

// deepSnarkScenarios are the slightly larger shapes only the deep mode runs.
var deepSnarkScenarios = []dequeScenario{
	{"2elem popL+popR+pushL+pushR", []uint64{1, 2}, [][]dequeOp{{popL()}, {popR()}, {pushL(3)}, {pushR(4)}}},
	{"3elem popLpopL+popRpopR", []uint64{1, 2, 3}, [][]dequeOp{{popL(), popL()}, {popR(), popR()}}},
	{"empty pushLpopR+pushRpopL", nil, [][]dequeOp{{pushL(1), popR()}, {pushR(2), popL()}}},
}

// heapError is a check failure that breaks the paper's memory guarantees:
// memory written after its free, a double free, or an object still live
// once the deque is closed. Value anomalies are plain errors.
type heapError struct{ problems []string }

func (e *heapError) Error() string { return "heap: " + strings.Join(e.problems, ", ") }

// heapProblems reports what a run did to a heap shared across runs, against
// the stats taken before the run built anything: new corruptions and double
// frees, objects left live, and freed slots whose poison was overwritten.
// The poison scan blames a write to freed memory on the run that made it,
// not on a later run that happens to recycle the slot.
func heapProblems(h *mem.Heap, base mem.Stats) []string {
	var problems []string
	hs := h.Stats()
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"corruptions", hs.Corruptions - base.Corruptions},
		{"doubleFrees", hs.DoubleFrees - base.DoubleFrees},
		{"live", hs.LiveObjects - base.LiveObjects},
	} {
		if c.n != 0 {
			problems = append(problems, fmt.Sprintf("%s=%d", c.name, c.n))
		}
	}
	if ds := h.ScanPoison(); len(ds) != 0 {
		problems = append(problems, fmt.Sprintf("poison: %+v", ds))
	}
	return problems
}

// snarkScenario runs sc on a Snark deque in the given cell, with value
// claiming or without. The check drains the deque and requires every value
// to be delivered exactly once across pops and drain; then it closes the
// deque, finishes any deferred reclamation and requires the heap intact.
// A heap failure is reported as a heapError, with the run's value anomalies
// appended; a run with an intact heap fails with its value anomalies alone.
//
// Runs are sequential, so they share the heap, its Snark types and the base
// engine (building a heap costs more than a run); each run gets a fresh
// core.RC and deque. A run whose check failed, or that never reached its
// check, leaves the heap in an unknown state, so the next run starts on a
// fresh one.
func snarkScenario(cell snarkCell, sc dequeScenario, claiming bool) Scenario {
	var (
		h     *mem.Heap
		types snark.Types
		base  dcas.Engine
		clean bool
	)
	return func(instrument func(dcas.Engine) dcas.Engine) ([]func(), func() error) {
		if !clean {
			h = mem.NewHeap(mem.WithAllocShards(1))
			types = snark.MustRegisterTypes(h)
			base = cellEngines[cell.engine](h, nil)
		}
		clean = false
		before := h.Stats()
		rc := core.New(h, instrument(base), core.WithStrategyKind(cell.strategy))
		var sopts []snark.Option
		if claiming {
			sopts = append(sopts, snark.WithValueClaiming())
		}
		d, err := snark.New(rc, types, sopts...)
		if err != nil {
			panic(err)
		}
		expected := map[uint64]int{}
		for _, v := range sc.prefill {
			if err := d.PushRight(v); err != nil {
				panic(err)
			}
			expected[v]++
		}

		results := make([][]uint64, len(sc.threads))
		threads := make([]func(), len(sc.threads))
		for i, script := range sc.threads {
			for _, op := range script {
				if op.push {
					expected[op.value]++
				}
			}
			threads[i] = func() {
				for _, op := range script {
					switch {
					case op.push && op.left:
						_ = d.PushLeft(op.value)
					case op.push:
						_ = d.PushRight(op.value)
					case op.left:
						if v, ok := d.PopLeft(); ok {
							results[i] = append(results[i], v)
						}
					default:
						if v, ok := d.PopRight(); ok {
							results[i] = append(results[i], v)
						}
					}
				}
			}
		}

		check := func() error {
			got := map[uint64]int{}
			for _, rs := range results {
				for _, v := range rs {
					got[v]++
				}
			}
			for v, ok := d.PopLeft(); ok; v, ok = d.PopLeft() {
				got[v]++
			}
			var values []string
			for v, n := range got {
				if n != expected[v] {
					values = append(values, fmt.Sprintf("value %d delivered %d times (want %d)", v, n, expected[v]))
				}
			}
			for v := range expected {
				if got[v] == 0 {
					values = append(values, fmt.Sprintf("value %d lost", v))
				}
			}
			slices.Sort(values)
			d.Close()
			if problems := heapProblems(h, before); len(problems) > 0 {
				return &heapError{append(problems, values...)}
			}
			if len(values) > 0 {
				return fmt.Errorf("%v", values)
			}
			clean = true
			return nil
		}
		return threads, check
	}
}

// heapTally counts the schedules whose check failed with a heapError. The
// explorer keeps only the first failure, so without it a value anomaly on
// an early schedule would hide a heap failure on a later one.
type heapTally struct {
	SUT
	failures int
	first    error
}

func (t *heapTally) build(yield func(wait bool)) ([]func(), func() error) {
	threads, check := t.SUT.build(yield)
	return threads, func() error {
		err := check()
		var he *heapError
		if errors.As(err, &he) {
			t.failures++
			if t.first == nil {
				t.first = err
			}
		}
		return err
	}
}

// TestSnarkMemorySafetyUnderExploration explores every scenario on the
// published deque, in the paper's cell and lfrc.New's default cell, over
// every schedule with at most two preemptions (up to 4,000 per scenario).
// On every schedule the paper's memory guarantees must hold: no corruption,
// no double free, nothing live once the deque is closed. The published
// algorithm's value anomalies, the historical races, are logged.
//
// With -deep this test and TestClaimingDequeExactUnderExploration run what
// `make explore` runs: the paper's cell at 4 preemptions and up to 200,000
// schedules, over the deep scenarios too, and every other cell at the
// budget above.
func TestSnarkMemorySafetyUnderExploration(t *testing.T) { exploreSnark(t, false) }

// TestClaimingDequeExactUnderExploration explores the same scenarios on the
// value-claiming deque: the memory guarantees must hold on every schedule,
// and every value must be delivered exactly once.
func TestClaimingDequeExactUnderExploration(t *testing.T) { exploreSnark(t, true) }

// exploreSnark runs one DFS per cell and scenario on one deque variant.
func exploreSnark(t *testing.T, claiming bool) {
	for i, cell := range snarkCells() {
		preemptions, maxRuns, scenarios := 2, 4_000, snarkScenarios
		switch {
		case *deep && i == 0:
			preemptions, maxRuns = 4, 200_000
			scenarios = slices.Concat(snarkScenarios, deepSnarkScenarios)
		case !*deep && i > 1:
			continue
		}
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%v/%s", cell, sc.name), func(t *testing.T) {
				s := &heapTally{SUT: snarkScenario(cell, sc, claiming)}
				res := RunDFS(s, preemptions, maxRuns, 100_000)
				anomalies := res.Violations - s.failures
				t.Logf("%d schedules (<=%d preemptions), %d value anomalies, %d heap failures, %d incomplete",
					res.Runs, preemptions, anomalies, s.failures, res.Incomplete)
				if s.failures != 0 {
					t.Errorf("heap violated on %d schedules; first: %v", s.failures, s.first)
				}
				if claiming && anomalies != 0 {
					t.Errorf("claiming deque: %d value anomalies; first failure: %v (trace %v)",
						anomalies, res.FirstError, res.FirstViolation)
				}
				if !claiming && anomalies != 0 {
					t.Logf("published Snark: first failure: %v (trace %v)", res.FirstError, res.FirstViolation)
				}
			})
		}
	}
}

// scriptedSUT is two threads of two steps each whose check returns the
// error scripted for the run's index, if any.
type scriptedSUT struct {
	run  int
	errs map[int]error
}

func (s *scriptedSUT) build(yield func(wait bool)) ([]func(), func() error) {
	run := s.run
	s.run++
	step := func() {
		yield(false)
		yield(false)
	}
	return []func(){step, step}, func() error { return s.errs[run] }
}

// TestHeapFailuresCountedPastFirstAnomaly scripts a value anomaly on one
// schedule and a heap failure on a later one: the heap failure must be
// counted even though the explorer reports the anomaly as its first error.
func TestHeapFailuresCountedPastFirstAnomaly(t *testing.T) {
	anomaly := errors.New("value 1 delivered 2 times (want 1)")
	leak := &heapError{[]string{"live=1"}}
	s := &heapTally{SUT: &scriptedSUT{errs: map[int]error{1: anomaly, 3: leak}}}
	res := RunDFS(s, 2, 100, 1_000)
	if res.Runs < 4 {
		t.Fatalf("only %d schedules explored; the script needs 4", res.Runs)
	}
	if res.Violations != 2 || !errors.Is(res.FirstError, anomaly) {
		t.Fatalf("violations %d, first %v; want 2, first the anomaly", res.Violations, res.FirstError)
	}
	if s.failures != 1 || !errors.Is(s.first, leak) {
		t.Fatalf("heap failures %d, first %v; want 1, the leak", s.failures, s.first)
	}
}
