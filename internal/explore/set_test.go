package explore

import (
	"fmt"
	"slices"
	"testing"

	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/dlist"
	"lfrc/internal/mem"
)

// setOp is one sorted-set operation in a thread's script.
type setOp struct {
	act byte // 'i' Insert, 'd' Delete, 'c' Contains
	key uint64
}

func (o setOp) String() string { return fmt.Sprintf("%c(%d)", o.act, o.key) }

// setScenario prefills a dlist set and runs one script per thread under the
// controlled scheduler, with the rc strategy strat. The check requires the
// per-thread results and the final contents to match some sequential
// interleaving of the scripts, and the heap to be intact: no corruption, no
// poisoned count update, and nothing live once the set is closed.
//
// Runs share one heap and its set types, as snarkScenario's do; a run that
// failed or never reached its check hands the next run a fresh heap.
func setScenario(strat core.StrategyKind, prefill []uint64, scripts [][]setOp) Scenario {
	var (
		h     *mem.Heap
		types dlist.Types
		clean bool
	)
	return func(instrument func(dcas.Engine) dcas.Engine) ([]func(), func() error) {
		if !clean {
			h = mem.NewHeap(mem.WithAllocShards(1))
			types = dlist.MustRegisterTypes(h)
		}
		clean = false
		before := h.Stats()
		rc := core.New(h, instrument(dcas.NewLocking(h)), core.WithStrategyKind(strat))
		l, err := dlist.New(rc, types)
		if err != nil {
			panic(err)
		}
		for _, k := range prefill {
			if _, err := l.Insert(k); err != nil {
				panic(err)
			}
		}

		results := make([][]bool, len(scripts))
		threads := make([]func(), len(scripts))
		for i, script := range scripts {
			threads[i] = func() {
				for _, op := range script {
					var ok bool
					switch op.act {
					case 'i':
						ok, _ = l.Insert(op.key)
					case 'd':
						ok = l.Delete(op.key)
					default:
						ok = l.Contains(op.key)
					}
					results[i] = append(results[i], ok)
				}
			}
		}

		check := func() error {
			final := l.Keys()
			var problems []string
			if !sequentiallyExplained(prefill, scripts, results, final) {
				problems = append(problems, fmt.Sprintf(
					"results %v with final contents %v match no sequential order of %v", results, final, scripts))
			}
			l.Close()
			problems = append(problems, heapProblems(h, before)...)
			if p := rc.Stats().PoisonedRCUpdates; p != 0 {
				problems = append(problems, fmt.Sprintf("poisoned rc updates=%d", p))
			}
			if len(problems) > 0 {
				return fmt.Errorf("%v", problems)
			}
			clean = true
			return nil
		}
		return threads, check
	}
}

// sequentiallyExplained reports whether some interleaving of the scripts
// (each thread's order preserved), run against a sequential set holding
// prefill, yields exactly the observed per-thread results and final contents.
func sequentiallyExplained(prefill []uint64, scripts [][]setOp, results [][]bool, final []uint64) bool {
	pos := make([]int, len(scripts))
	set := map[uint64]bool{}
	for _, k := range prefill {
		set[k] = true
	}
	var try func() bool
	try = func() bool {
		progressed := false
		for t, script := range scripts {
			if pos[t] == len(script) {
				continue
			}
			progressed = true
			op := script[pos[t]]
			was := set[op.key]
			var ok bool
			switch op.act {
			case 'i':
				ok, set[op.key] = !was, true
			case 'd':
				ok, set[op.key] = was, false
			default:
				ok = was
			}
			if pos[t] < len(results[t]) && results[t][pos[t]] == ok {
				pos[t]++
				if try() {
					return true
				}
				pos[t]--
			}
			set[op.key] = was
		}
		if progressed {
			return false
		}
		var keys []uint64
		for k, in := range set {
			if in {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		return slices.Equal(keys, final)
	}
	return try()
}

// TestSetUnderExploration explores the sorted set's traversal — the counted
// hand-over-hand walk — against deletes and reinserts that unlink and relink
// the nodes it stands on, over every schedule with at most two preemptions
// (about 5k per strategy), under both rc strategies.
func TestSetUnderExploration(t *testing.T) {
	scripts := [][]setOp{
		{{'c', 3}, {'d', 3}},
		{{'d', 2}, {'i', 2}},
	}
	for _, c := range []struct {
		name  string
		strat core.StrategyKind
	}{{"figure2", core.StrategyFigure2}, {"split", core.StrategySplit}} {
		strat := c.strat
		t.Run(c.name, func(t *testing.T) {
			res := RunDFS(setScenario(strat, []uint64{1, 2, 3}, scripts), 2, 100_000, 100_000)
			if res.Violations != 0 || res.Incomplete != 0 {
				t.Errorf("%d violations, %d incomplete in %d runs; first: %v (trace %v)",
					res.Violations, res.Incomplete, res.Runs, res.FirstError, res.FirstViolation)
			}
			t.Logf("%d schedules explored", res.Runs)
		})
	}
}
