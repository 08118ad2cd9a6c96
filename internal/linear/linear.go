// Package linear is a small linearizability checker in the style of Wing &
// Gong (and Lowe's refinements): it records a concurrent history of
// operation invocations and responses and searches for a legal sequential
// witness against a user-supplied specification.
//
// The LFRC paper's correctness story for the transformed structures is
// "the methodology preserves the original algorithm's semantics" (§3, §4).
// Model tests cover the sequential half; this package covers the concurrent
// half: stress tests record real histories from the LFRC deque, queue, set
// and stack and assert a linearization exists.
//
// The checker is exponential in the number of overlapping operations, as
// all such checkers are; keep histories to a few thousand operations with
// modest concurrency (Recorder bounds how many operations overlap).
package linear

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spec models the sequential object: an immutable-state step function.
// State values must be comparable via the Equal method so the checker can
// prune revisited configurations.
type Spec interface {
	// Init returns the initial state.
	Init() State

	// Apply runs one operation against the state, returning whether the
	// recorded output is legal there and, if so, the successor state.
	// Implementations must not mutate the input state.
	Apply(s State, op Op) (ok bool, next State)
}

// State is an opaque sequential-object state. Implementations must provide
// a stable Key for memoization.
type State interface {
	// Key returns a canonical encoding of the state; two states with the
	// same key are interchangeable.
	Key() string
}

// Op is one completed operation: an action code plus input and output.
type Op struct {
	// Action is a spec-defined operation code.
	Action int

	// Input and Output are spec-defined values.
	Input, Output uint64

	// OK is a spec-defined boolean output (e.g. pop success).
	OK bool
}

// Event is an operation with its real-time invocation/response interval.
type Event struct {
	Op
	// Invoke and Return are monotonic timestamps (nanoseconds).
	Invoke, Return int64
}

// History is a recorded set of events.
type History struct {
	mu     sync.Mutex
	events []Event
	clock  func() int64
}

// NewHistory creates an empty history using the runtime monotonic clock.
func NewHistory() *History {
	start := time.Now()
	return &History{clock: func() int64 { return int64(time.Since(start)) }}
}

// Begin records an invocation and returns its timestamp.
func (h *History) Begin() int64 { return h.clock() }

// End records the completion of an operation that began at invoke.
func (h *History) End(invoke int64, op Op) {
	ret := h.clock()
	h.mu.Lock()
	h.events = append(h.events, Event{Op: op, Invoke: invoke, Return: ret})
	h.mu.Unlock()
}

// Len returns the number of recorded events.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.events)
}

// Events returns a copy of the recorded events.
func (h *History) Events() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.events...)
}

// CheckResult reports a linearizability check.
type CheckResult struct {
	// Linearizable reports whether a witness was found (or the history
	// is empty).
	Linearizable bool

	// Events is the number of events checked.
	Events int

	// StatesExplored counts search configurations visited.
	StatesExplored int
}

// Check searches for a linearization of the history against spec: it is
// CheckEvents over the recorded events, searched as one history.
func Check(spec Spec, h *History) (CheckResult, error) {
	events := h.Events()
	return CheckEvents(spec, events)
}

// ErrUndecided reports a search that spent its state or time budget before
// it found a linearization or ruled one out. Such a history fails its check
// instead of searching until the test binary's timeout.
var ErrUndecided = errors.New("linear: undecided")

// maxStates is the state budget of CheckEvents: twenty times the most any
// recorded structure history in this package's tests needs (about 45k
// states for 2,000 events). Spending it takes about 5 s and 150 MB of heap
// on a 2-CPU linux/amd64 host.
const maxStates = 1 << 20

// maxDuration is the wall-clock budget of CheckEvents. The state budget
// alone does not bound time: under the race detector a state costs many
// times more, and spending 2^20 of them has outlasted a 10-minute test
// timeout. No recorded history comes near it without -race.
const maxDuration = 60 * time.Second

// CheckEvents is Check over an explicit event slice. A search that visits
// more than maxStates configurations, or runs longer than maxDuration, gives
// up with ErrUndecided.
//
// The search is the Wing–Gong construction with memoization over
// configurations. Events are sorted by invocation time; a configuration is
// (p, extras, state) where every event before index p is linearized, extras
// is the sparse set of linearized events at or past p, and state is the
// sequential object state. The key property that keeps candidate
// enumeration cheap: an event i may linearize next iff no *pending* event j
// returned before i invoked, and any such blocker sorts before i — so
// candidates are found by a forward scan from p that stops at the first
// pending event whose return time precedes the candidate's invocation.
func CheckEvents(spec Spec, events []Event) (CheckResult, error) {
	return checkEvents(spec, events, maxStates, maxDuration)
}

// checkEvents is CheckEvents with an explicit state budget and time limit.
func checkEvents(spec Spec, events []Event, budget int, limit time.Duration) (CheckResult, error) {
	res := CheckResult{Events: len(events)}
	if len(events) == 0 {
		res.Linearizable = true
		return res, nil
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Invoke != events[j].Invoke {
			return events[i].Invoke < events[j].Invoke
		}
		return events[i].Return < events[j].Return
	})

	n := len(events)
	start := time.Now()
	seen := map[string]bool{}
	explored := 0
	var deepest int
	undecided := false

	type extrasSet map[int]bool

	keyOf := func(p int, extras extrasSet, st State) string {
		ks := make([]int, 0, len(extras))
		for i := range extras {
			ks = append(ks, i)
		}
		sort.Ints(ks)
		return fmt.Sprintf("%d|%v|%s", p, ks, st.Key())
	}

	var dfs func(p int, extras extrasSet, st State) bool
	dfs = func(p int, extras extrasSet, st State) bool {
		// Normalize: advance p over linearized extras.
		for extras[p] {
			delete(extras, p)
			p++
		}
		if p > deepest {
			deepest = p
		}
		if p == n {
			return true
		}
		explored++
		// The clock is read once per 1024 states, so the bound costs
		// the search nothing measurable.
		if explored > budget || explored%1024 == 0 && time.Since(start) > limit {
			undecided = true
			return true // unwind the search
		}
		k := keyOf(p, extras, st)
		if seen[k] {
			return false
		}
		seen[k] = true

		// Enumerate candidates: scan forward from p. minRet tracks the
		// earliest return among pending events seen so far; once a
		// candidate invokes after minRet, it and everything later is
		// blocked by that pending event.
		minRet := int64(math.MaxInt64)
		for i := p; i < n; i++ {
			if extras[i] {
				continue
			}
			if events[i].Invoke > minRet {
				break
			}
			if ok, next := spec.Apply(st, events[i].Op); ok {
				var e2 extrasSet
				if i == p {
					e2 = make(extrasSet, len(extras))
					for x := range extras {
						e2[x] = true
					}
					if dfs(p+1, e2, next) {
						return true
					}
				} else {
					e2 = make(extrasSet, len(extras)+1)
					for x := range extras {
						e2[x] = true
					}
					e2[i] = true
					if dfs(p, e2, next) {
						return true
					}
				}
			}
			if events[i].Return < minRet {
				minRet = events[i].Return
			}
		}
		return false
	}

	ok := dfs(0, extrasSet{}, spec.Init())
	res.StatesExplored = explored
	if undecided {
		return res, fmt.Errorf("%w: %d states searched in %v, deepest %d of %d events",
			ErrUndecided, explored, time.Since(start).Round(time.Millisecond), deepest, n)
	}
	if !ok {
		return res, fmt.Errorf("linear: no linearization (search stuck after %d of %d events)", deepest, n)
	}
	res.Linearizable = true
	return res, nil
}

// Recorder wraps a history with a concurrency limiter so that windows stay
// small enough to check: at most maxConcurrent operations may overlap.
type Recorder struct {
	h   *History
	sem chan struct{}

	dropped atomic.Int64
}

// NewRecorder builds a recorder allowing up to maxConcurrent overlapping
// operations.
func NewRecorder(maxConcurrent int) *Recorder {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	return &Recorder{h: NewHistory(), sem: make(chan struct{}, maxConcurrent)}
}

// Record runs fn as one recorded operation.
func (r *Recorder) Record(fn func() Op) {
	r.sem <- struct{}{}
	inv := r.h.Begin()
	op := fn()
	r.h.End(inv, op)
	<-r.sem
}

// History returns the underlying history.
func (r *Recorder) History() *History { return r.h }
