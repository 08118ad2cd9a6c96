package explore

import (
	"fmt"
	"runtime/debug"
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
func setScenario(strat core.StrategyKind, prefill []uint64, scripts [][]setOp) Scenario {
	return func(instrument func(dcas.Engine) dcas.Engine) ([]func(), func() error) {
		h := mem.NewHeap()
		rc := core.New(h, instrument(dcas.NewLocking(h)), core.WithStrategyKind(strat))
		l, err := dlist.New(rc, dlist.MustRegisterTypes(h))
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
			if hs := h.Stats(); hs.Corruptions != 0 || hs.DoubleFrees != 0 || hs.LiveObjects != 0 {
				problems = append(problems, fmt.Sprintf(
					"heap: corruptions=%d doubleFrees=%d live=%d", hs.Corruptions, hs.DoubleFrees, hs.LiveObjects))
			}
			if p := rc.Stats().PoisonedRCUpdates; p != 0 {
				problems = append(problems, fmt.Sprintf("poisoned rc updates=%d", p))
			}
			if len(problems) > 0 {
				return fmt.Errorf("%v", problems)
			}
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
	// Every schedule builds a fresh heap with a 512 KB first segment; at the
	// default GC pace collecting those costs more than the exploration.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	scripts := [][]setOp{
		{{'c', 3}, {'d', 3}},
		{{'d', 2}, {'i', 2}},
	}
	for name, strat := range map[string]core.StrategyKind{"figure2": core.StrategyFigure2, "split": core.StrategySplit} {
		t.Run(name, func(t *testing.T) {
			res := RunDFS(setScenario(strat, []uint64{1, 2, 3}, scripts), 2, 100_000, 100_000)
			if res.Violations != 0 || res.Incomplete != 0 {
				t.Errorf("%d violations, %d incomplete in %d runs; first: %v (trace %v)",
					res.Violations, res.Incomplete, res.Runs, res.FirstError, res.FirstViolation)
			}
			t.Logf("%d schedules explored", res.Runs)
		})
	}
}
