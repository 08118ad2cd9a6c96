package explore

import (
	"fmt"
	"sync/atomic"
	"testing"

	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

// racyCounterScenario is the explorer's self-test: two threads perform a
// read-modify-write through the engine *without* CAS, so a preemption
// between the read and the write loses an update. The final count detects
// it.
func racyCounterScenario(useCAS bool) Scenario {
	return func(instrument func(dcas.Engine) dcas.Engine) ([]func(), func() error) {
		h := mem.NewHeap(mem.WithAllocShards(1))
		e := instrument(dcas.NewLocking(h))
		id := h.MustRegisterType(mem.TypeDesc{Name: "ctr", NumFields: 1})
		r := h.MustAlloc(id)
		a := h.FieldAddr(r, 0)

		inc := func() {
			if useCAS {
				for {
					v := e.Read(a)
					if e.CAS(a, v, v+1) {
						return
					}
				}
			}
			v := e.Read(a)
			e.Write(a, v+1)
		}
		threads := []func(){inc, inc}
		check := func() error {
			if got := e.Read(a); got != 2 {
				return fmt.Errorf("count = %d, want 2", got)
			}
			return nil
		}
		return threads, check
	}
}

func TestExplorerFindsLostUpdate(t *testing.T) {
	// Without any preemption the racy counter is correct...
	res := RunDFS(racyCounterScenario(false), 0, 100, 10_000)
	if res.Violations != 0 {
		t.Fatalf("0-preemption exploration found %d violations; the bug needs a preemption", res.Violations)
	}
	// ...one preemption exposes the lost update...
	res = RunDFS(racyCounterScenario(false), 1, 1000, 10_000)
	if res.Violations == 0 {
		t.Fatalf("1-preemption exploration missed the lost update (%d runs)", res.Runs)
	}
	t.Logf("lost update found: %d violations in %d runs; trace %v", res.Violations, res.Runs, res.FirstViolation)

	// ...and the trace replays deterministically.
	if err := Replay(racyCounterScenario(false), res.FirstViolation, 10_000); err == nil {
		t.Fatal("replay of the violating schedule did not reproduce the bug")
	}
}

func TestExplorerCASCounterIsCorrect(t *testing.T) {
	res := RunDFS(racyCounterScenario(true), 2, 3000, 10_000)
	if res.Violations != 0 {
		t.Fatalf("CAS counter violated under exploration: %v (%v)", res.FirstViolation, res.FirstError)
	}
	if res.Runs < 10 {
		t.Fatalf("exploration only ran %d schedules", res.Runs)
	}
}

func TestExplorerRandomModeFindsLostUpdate(t *testing.T) {
	res := RunRandom(racyCounterScenario(false), 200, 3, 10_000)
	if res.Violations == 0 {
		t.Fatal("random exploration missed the lost update in 200 runs")
	}
}

// waitSUT has thread 0 wait, by yielding with wait set, for a flag thread 1
// sets after two steps: the shape of an MCAS owner waiting for a free slot.
type waitSUT struct{}

func (waitSUT) build(yield func(wait bool)) ([]func(), func() error) {
	var set atomic.Bool
	waiter := func() {
		for !set.Load() {
			yield(true)
		}
	}
	setter := func() {
		yield(false)
		yield(false)
		set.Store(true)
	}
	return []func(){waiter, setter}, func() error { return nil }
}

func TestExplorerSchedulesAroundWaitingThread(t *testing.T) {
	// The default policy keeps running the current thread; a waiting
	// thread must yield the processor instead of spinning to the step cap.
	res := RunDFS(waitSUT{}, 0, 10, 1000)
	if res.Incomplete != 0 || res.Violations != 0 || res.Runs == 0 {
		t.Fatalf("waiting thread: %+v, want every run complete", res)
	}
	// A run that hits the step cap is counted incomplete and still drains.
	res = RunRandom(racyCounterScenario(false), 20, 3, 2)
	if res.Incomplete != res.Runs {
		t.Fatalf("step cap 2: %d of %d runs incomplete, want all", res.Incomplete, res.Runs)
	}
}

// lfrcLoadScenario explores the heart of the paper: one thread Loads a
// shared pointer while another swings it and frees the displaced object.
// Under the safe DCAS protocol no schedule may corrupt freed memory; the
// check also verifies the loaded reference is never a freed object.
//
// Runs share one heap and its types, as snarkScenario's do. The heap has one
// allocation shard, so a run recycles the slot freed last, as it would on a
// fresh heap. A run whose check passes then releases what it allocated; if
// that leaves the heap anything but intact (NaiveLoad's retry drops a count
// to zero without freeing the object), or the check failed, the next run
// starts on a fresh heap.
func lfrcLoadScenario(naive bool) Scenario {
	var (
		h          *mem.Heap
		cell, node mem.TypeID
		clean      bool
	)
	return func(instrument func(dcas.Engine) dcas.Engine) ([]func(), func() error) {
		if !clean {
			h = mem.NewHeap(mem.WithAllocShards(1))
			cell = h.MustRegisterType(mem.TypeDesc{Name: "cell", NumFields: 1, PtrFields: []int{0}})
			node = h.MustRegisterType(mem.TypeDesc{Name: "node", NumFields: 2, PtrFields: []int{0}})
		}
		clean = false
		before := h.Stats()
		rc := core.New(h, instrument(dcas.NewLocking(h)))

		holder := h.MustAlloc(cell)
		a := h.FieldAddr(holder, 0)
		seed := h.MustAlloc(node)
		rc.StoreAlloc(a, seed)

		var dst mem.Ref
		loadedFreed := false
		reader := func() {
			for i := 0; i < 2; i++ {
				rc.Destroy(dst)
				dst = 0
				if naive {
					rc.NaiveLoad(a, &dst)
				} else {
					rc.Load(a, &dst)
				}
				if dst != 0 && h.IsFreed(dst) {
					loadedFreed = true
				}
			}
		}
		swinger := func() {
			for i := 0; i < 2; i++ {
				n, err := rc.NewObject(node)
				if err != nil {
					return
				}
				rc.StoreAlloc(a, n)
			}
		}
		check := func() error {
			rc.Destroy(dst)
			if loadedFreed {
				return fmt.Errorf("Load returned a freed object")
			}
			if p := rc.Stats().PoisonedRCUpdates; p != 0 {
				return fmt.Errorf("%d poisoned rc updates", p)
			}
			if c := h.Stats().Corruptions - before.Corruptions; c != 0 {
				return fmt.Errorf("%d heap corruptions", c)
			}
			rc.Store(a, 0)
			rc.Destroy(holder)
			clean = len(heapProblems(h, before)) == 0
			return nil
		}
		return []func(){reader, swinger}, check
	}
}

// TestSafeLoadSurvivesAllSchedules is the paper's §5 safety argument run as
// bounded model checking: with up to 3 preemptions at shared-memory
// granularity, no schedule makes LFRCLoad touch freed memory.
func TestSafeLoadSurvivesAllSchedules(t *testing.T) {
	res := RunDFS(lfrcLoadScenario(false), 3, 20_000, 50_000)
	if res.Violations != 0 {
		t.Fatalf("safe Load violated: trace %v: %v", res.FirstViolation, res.FirstError)
	}
	if res.Incomplete != 0 {
		t.Errorf("%d runs hit the step cap", res.Incomplete)
	}
	t.Logf("safe load verified over %d schedules (<=3 preemptions)", res.Runs)
}

// TestNaiveLoadFailsUnderExploration shows the explorer finds the §5 bug in
// the CAS-only protocol without any injected schedule: systematic search
// alone uncovers a schedule that corrupts freed memory.
func TestNaiveLoadFailsUnderExploration(t *testing.T) {
	res := RunDFS(lfrcLoadScenario(true), 2, 20_000, 50_000)
	if res.Violations == 0 {
		t.Fatalf("exploration missed the naive-load corruption in %d runs", res.Runs)
	}
	t.Logf("naive load corrupted on %d of %d schedules; first trace %v (%v)",
		res.Violations, res.Runs, res.FirstViolation, res.FirstError)

	if err := Replay(lfrcLoadScenario(true), res.FirstViolation, 50_000); err == nil {
		t.Fatal("replay did not reproduce the corruption")
	}
}
