// Package explore is a controlled-concurrency test harness: it serializes a
// small group of threads and drives every context switch itself, so that
// interleavings of the LFRC algorithms can be searched systematically
// instead of sampled by the Go scheduler.
//
// The preemption points are exactly the shared-memory operations: the
// harness wraps the DCAS engine so that every Read/Write/CAS/DCAS yields to
// the scheduler first. A CellScenario goes finer: its engines are built
// with the explorer's dcas.WithStep hook, which yields at every heap access
// inside the engine, every internal step of the software MCAS engine and
// every wait of the locking engine on a locked cell. Since all shared state
// in this repository is accessed through an engine, engine-operation
// granularity captures every observable interleaving of the algorithms —
// the same granularity a model checker of the paper's pseudocode would use.
//
// Two search modes are provided:
//
//   - RunRandom: many runs under seeded random schedulers (uniform or
//     sticky), good for fast smoke coverage;
//   - RunDFS: exhaustive enumeration of schedules with a bounded number of
//     preemptions (in the spirit of Musuvathi & Qadeer's CHESS), which is
//     complete for small scenarios at the chosen bound.
//
// A Scenario builds a fresh system for each run and returns the thread
// bodies plus a post-run validator; a violation is any run whose validator
// fails, and the offending schedule trace is returned for replay.
package explore

import (
	"fmt"
	"math/rand"

	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

// SUT is a system under test: either a Scenario (preemption points at
// engine-operation granularity — right for algorithms built *on* an engine)
// or a CellScenario (preemption points at cell granularity — fine enough to
// interleave the internal steps of the software MCAS engine itself).
type SUT interface {
	build(yield func(wait bool)) (threads []func(), check func() error)
}

// Scenario builds one fresh instance of a system under test. The supplied
// instrument function must wrap the scenario's DCAS engine; every engine
// operation then becomes a scheduling point. The returned check runs after
// all threads finish (single-threaded) and reports a property violation.
type Scenario func(instrument func(dcas.Engine) dcas.Engine) (threads []func(), check func() error)

func (s Scenario) build(yield func(wait bool)) ([]func(), func() error) {
	return s(func(e dcas.Engine) dcas.Engine {
		return &instrumentedEngine{inner: e, yield: yield}
	})
}

// CellScenario builds a system whose engines are built with the supplied
// step function as their dcas.WithStep hook, so every single heap
// Load/Store/CAS inside an engine — including those of its helping or
// locking protocol — is a scheduling point. An MCAS engine adds its
// descriptor-field accesses and slot claims and releases as scheduling
// points too, and a locking engine marks its waits on a locked cell. A
// thread that waits — for a descriptor slot or for a locked cell — is not
// scheduled again until another thread has made progress: taken a step that
// is neither a wait nor the first step after one. A scenario that wants a
// heap access outside any engine to be a scheduling point calls step(false)
// before it.
//
// Build the heap with mem.WithAllocShards(1): the explorer's goroutines run
// on whatever P the Go scheduler gives them, and a shard that followed the
// P would hand out different addresses, and so explore different
// schedules, from one run to the next.
type CellScenario func(step func(wait bool)) (threads []func(), check func() error)

func (s CellScenario) build(yield func(wait bool)) ([]func(), func() error) {
	return s(yield)
}

// Result summarizes one exploration.
type Result struct {
	// Runs is the number of schedules executed.
	Runs int

	// Violations is the number of runs whose check failed.
	Violations int

	// FirstViolation, when Violations > 0, holds the failing schedule's
	// trace (sequence of thread ids granted) and the check error.
	FirstViolation []int
	FirstError     error

	// Incomplete counts runs aborted by the step cap (livelock guard).
	Incomplete int
}

// instrumentedEngine yields to the scheduler before every operation.
type instrumentedEngine struct {
	inner dcas.Engine
	yield func(wait bool)
}

var _ dcas.Engine = (*instrumentedEngine)(nil)

func (e *instrumentedEngine) Name() string { return e.inner.Name() + "+explore" }

func (e *instrumentedEngine) Read(a mem.Addr) uint64 {
	e.yield(false)
	return e.inner.Read(a)
}

func (e *instrumentedEngine) Write(a mem.Addr, v uint64) {
	e.yield(false)
	e.inner.Write(a, v)
}

func (e *instrumentedEngine) CAS(a mem.Addr, old, new uint64) bool {
	e.yield(false)
	return e.inner.CAS(a, old, new)
}

func (e *instrumentedEngine) DCAS(a0, a1 mem.Addr, old0, old1, new0, new1 uint64) bool {
	e.yield(false)
	return e.inner.DCAS(a0, a1, old0, old1, new0, new1)
}

// picker chooses the next thread to step. runnable is non-empty and sorted;
// cur is the previously running thread (-1 initially; may not be runnable).
type picker func(runnable []int, cur int) int

// schedEvent is a thread's announcement: parked at a yield point (waiting
// for another thread's progress if wait is set), or done.
type schedEvent struct {
	tid  int
	done bool
	wait bool
}

// runOnce executes the scenario under the given picker, returning the
// schedule trace, whether every thread completed within maxSteps, and the
// check error (nil if check passed or the run was incomplete).
func runOnce(s SUT, pick picker, maxSteps int) (trace []int, completed bool, checkErr error) {
	events := make(chan schedEvent)
	var grants []chan struct{}
	cur := -1
	// active gates the yield points: scenario construction and the final
	// check run on this goroutine with no scheduler behind them, so
	// yields must be inert outside the scheduled phase. All transitions
	// are ordered by the grant/event channels.
	active := false

	yield := func(wait bool) {
		if !active {
			return
		}
		// Only the single running thread executes here, and the
		// scheduler is blocked waiting for its event, so reading cur is
		// race-free — but it must be captured *before* the send: the
		// moment the event is received the scheduler may grant another
		// thread and overwrite cur.
		tid := cur
		events <- schedEvent{tid: tid, wait: wait}
		<-grants[tid]
	}
	threads, check := s.build(yield)
	n := len(threads)
	grants = make([]chan struct{}, n)
	for i := range grants {
		grants[i] = make(chan struct{})
	}

	parked := make([]bool, n)
	done := make([]bool, n)
	waiting := make([]bool, n)
	waited := make([]bool, n) // the thread's last event was a wait
	active = true
	for i := range threads {
		go func(i int) {
			<-grants[i] // wait for the first grant before touching anything
			threads[i]()
			events <- schedEvent{tid: i, done: true}
		}(i)
	}
	// All threads are initially parked at their birth grant.
	for i := range parked {
		parked[i] = true
	}

	live := n
	aborted := false
	for live > 0 {
		// A waiting thread is runnable again once another thread has
		// made progress, or when every live thread is waiting.
		var runnable, waiters []int
		for i := 0; i < n; i++ {
			if parked[i] && !done[i] {
				if waiting[i] {
					waiters = append(waiters, i)
				} else {
					runnable = append(runnable, i)
				}
			}
		}
		if len(runnable) == 0 {
			runnable = waiters
		}
		var t int
		if len(trace) >= maxSteps {
			// Livelock guard: stop recording and run the threads to
			// completion one at a time.
			aborted = true
			t = runnable[0]
		} else {
			t = pick(runnable, cur)
			trace = append(trace, t)
		}
		parked[t] = false
		cur = t
		grants[t] <- struct{}{}
		ev := <-events
		// A wait and the re-check that follows it are one spin of a
		// waiter, not progress: two waiters must not wake each other.
		if ev.done || !ev.wait && !waited[ev.tid] {
			clear(waiting)
		}
		if ev.done {
			done[ev.tid] = true
			live--
		} else {
			parked[ev.tid] = true
			waiting[ev.tid] = ev.wait
			waited[ev.tid] = ev.wait
		}
	}
	active = false
	if aborted {
		return trace, false, nil
	}
	return trace, true, check()
}

// RunRandom explores the scenario under `runs` seeded random schedules.
// sticky > 0 keeps the current thread running with probability
// sticky/(sticky+1), producing long runs punctuated by preemptions (usually
// more effective than uniform switching).
func RunRandom(s SUT, runs int, sticky int, maxSteps int) Result {
	var res Result
	for seed := 0; seed < runs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		pick := func(runnable []int, cur int) int {
			if sticky > 0 && cur >= 0 && rng.Intn(sticky+1) != 0 {
				for _, t := range runnable {
					if t == cur {
						return t
					}
				}
			}
			return runnable[rng.Intn(len(runnable))]
		}
		trace, completed, err := runOnce(s, pick, maxSteps)
		res.Runs++
		if !completed {
			res.Incomplete++
			continue
		}
		if err != nil {
			res.Violations++
			if res.FirstViolation == nil {
				res.FirstViolation = trace
				res.FirstError = err
			}
		}
	}
	return res
}

// Replay executes the scenario under a recorded schedule trace (running the
// lowest-numbered runnable thread once the trace is exhausted) and returns
// the check error.
func Replay(s SUT, trace []int, maxSteps int) error {
	i := 0
	pick := func(runnable []int, cur int) int {
		if i < len(trace) {
			t := trace[i]
			i++
			for _, r := range runnable {
				if r == t {
					return t
				}
			}
		}
		return runnable[0]
	}
	_, completed, err := runOnce(s, pick, maxSteps)
	if !completed {
		return fmt.Errorf("explore: replay exceeded %d steps", maxSteps)
	}
	return err
}

// RunDFS exhaustively explores all schedules with at most maxPreemptions
// context switches away from the default run-to-completion order, up to
// maxRuns runs. A preemption is a switch to a different thread at a point
// where the current thread is still runnable.
func RunDFS(s SUT, maxPreemptions, maxRuns, maxSteps int) Result {
	var res Result

	// frontier holds schedule prefixes (each a list of forced choices)
	// still to be explored, paired with their preemption budgets.
	type job struct {
		prefix []int
		budget int
	}
	frontier := []job{{budget: maxPreemptions}}

	for len(frontier) > 0 && res.Runs < maxRuns {
		j := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		// Execute: follow the prefix, then default policy (stay on the
		// current thread while runnable, else lowest id). Record the
		// choice points so children can be generated.
		type choicePoint struct {
			step     int
			runnable []int
			chose    int
			curAlive bool
		}
		var points []choicePoint
		i := 0
		pick := func(runnable []int, cur int) int {
			var t int
			if i < len(j.prefix) {
				t = j.prefix[i]
				ok := false
				for _, r := range runnable {
					if r == t {
						ok = true
					}
				}
				if !ok {
					t = runnable[0]
				}
			} else {
				t = runnable[0]
				curAlive := false
				for _, r := range runnable {
					if r == cur {
						curAlive = true
						t = cur
						break
					}
				}
				points = append(points, choicePoint{
					step:     i,
					runnable: append([]int(nil), runnable...),
					chose:    t,
					curAlive: curAlive,
				})
			}
			i++
			return t
		}
		trace, completed, err := runOnce(s, pick, maxSteps)
		res.Runs++
		if !completed {
			res.Incomplete++
			continue
		}
		if err != nil {
			res.Violations++
			if res.FirstViolation == nil {
				res.FirstViolation = trace
				res.FirstError = err
			}
			continue
		}
		// Generate children: at every default-policy choice point,
		// branch to each alternative thread. Branching away from a
		// still-runnable current thread costs one preemption.
		for _, cp := range points {
			for _, alt := range cp.runnable {
				if alt == cp.chose {
					continue
				}
				cost := 0
				if cp.curAlive {
					cost = 1
				}
				if j.budget-cost < 0 {
					continue
				}
				child := make([]int, cp.step+1)
				copy(child, trace[:cp.step])
				child[cp.step] = alt
				frontier = append(frontier, job{prefix: child, budget: j.budget - cost})
			}
		}
	}
	return res
}
