package lfrc

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"lfrc/internal/fault"
)

// WithFaultPlan arms the deterministic fault injector with a plan spec:
// semicolon-separated point rules of the form point:directive[,directive...],
// e.g.
//
//	core.load:p=0.01;snark.popright:nth=3+7;mem.alloc:every=1000
//
// Injection points cover the LFRC operations' CAS/DCAS attempts (core.load,
// core.store, core.storealloc, core.cas, core.dcas, core.addtorc), the
// zombie stack (reclaim.push, reclaim.drain — or reclaim.* to arm both),
// the four Snark hat loops
// (snark.pushleft/pushright/popleft/popright), the queue, stack, and set
// retry loops (queue.enqueue/dequeue, stack.push/pop,
// set.insert/delete/popmin), and the allocator (mem.alloc forces an injected
// ErrOutOfMemory; mem.alloc.slow forces the allocator past its shard-local
// fast path). A point ending in "*" is a prefix glob. Directives: p=FLOAT
// (probabilistic), every=N, nth=A+B+..., limit=N, delay=DURATION, gosched,
// stall. An injected CAS/DCAS failure makes the operation take exactly the
// retry or compensation path a genuinely lost race takes.
//
// Whether attempt n at a point fires depends only on (seed, point, n) — see
// WithFaultSeed — so the same seed and plan reproduce the same firing
// schedule. An empty spec (the default) leaves injection disabled at zero
// hot-path cost. A malformed spec surfaces as an error from New.
//
// Beware rules that fire on every attempt (p=1, every=1) at retry-loop
// points: the loop can never succeed and the operation livelocks, by design.
func WithFaultPlan(spec string) Option {
	return optionFunc(func(c *config) { c.faultPlan = spec })
}

// WithFaultSeed sets the fault injector's seed (default 1). Same seed, same
// plan → same injection schedule at every point, independent of goroutine
// interleaving.
func WithFaultSeed(seed uint64) Option {
	return optionFunc(func(c *config) { c.faultSeed = seed })
}

// HeapPressurePolicy is the graceful-degradation contract for heap
// exhaustion: instead of failing an operation on the first ErrOutOfMemory,
// the system retries it up to MaxRetries times, kicking the deferred-
// reclamation backlog (DrainZombies) and backing off before each retry.
// Only after the policy is exhausted does the caller see the error.
type HeapPressurePolicy struct {
	// MaxRetries bounds the retry attempts after the initial failure.
	// 0 disables degradation (fail fast, the default).
	MaxRetries int

	// Backoff is the sleep before the first retry; it doubles per retry up
	// to MaxBackoff. A zero Backoff yields the processor instead of
	// sleeping.
	Backoff    time.Duration
	MaxBackoff time.Duration

	// DrainPerRetry caps the zombie objects reclaimed before each retry
	// (0 = drain everything parked).
	DrainPerRetry int
}

// DefaultHeapPressurePolicy is a sane degraded-mode policy: 8 retries,
// 50µs initial backoff doubling to at most 5ms, full zombie drain per retry.
func DefaultHeapPressurePolicy() HeapPressurePolicy {
	return HeapPressurePolicy{
		MaxRetries: 8,
		Backoff:    50 * time.Microsecond,
		MaxBackoff: 5 * time.Millisecond,
	}
}

// WithHeapPressurePolicy installs a graceful-degradation policy for heap
// exhaustion. The default policy is disabled (MaxRetries 0): allocation
// failures surface immediately. Degraded-mode activity is counted in
// Stats().Degraded and exported as lfrc_degraded_* metrics; when the policy
// finally gives up, the operation fails with an error matching
// errors.Is(err, ErrOutOfMemory) and — when the flight recorder is enabled —
// a postmortem carrying the injected fault schedule is captured for replay.
func WithHeapPressurePolicy(p HeapPressurePolicy) Option {
	return optionFunc(func(c *config) { c.pressure = p })
}

// degradedCounters is the System's degraded-mode accounting.
type degradedCounters struct {
	retries        atomic.Int64
	recoveries     atomic.Int64
	exhaustions    atomic.Int64
	zombiesDrained atomic.Int64
}

// retryPressure applies the heap-pressure policy to a failed operation: if
// err is heap exhaustion and a policy is installed, it drains zombies, backs
// off, and retries op until it succeeds or the policy is spent. It returns
// op's final error (nil on recovery); non-exhaustion errors pass through
// untouched. Callers keep their fast path closure-free by only calling this
// once an error is already in hand.
func (s *System) retryPressure(err error, op func() error) error {
	if err == nil || s.pressure.MaxRetries <= 0 || !errors.Is(err, ErrOutOfMemory) {
		return err
	}
	backoff := s.pressure.Backoff
	for i := 0; i < s.pressure.MaxRetries; i++ {
		s.deg.retries.Add(1)
		if n := s.rc.DrainZombies(s.pressure.DrainPerRetry); n > 0 {
			s.deg.zombiesDrained.Add(int64(n))
		}
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if s.pressure.MaxBackoff > 0 && backoff > s.pressure.MaxBackoff {
				backoff = s.pressure.MaxBackoff
			}
		} else {
			runtime.Gosched()
		}
		if err = op(); err == nil {
			s.deg.recoveries.Add(1)
			return nil
		}
		if !errors.Is(err, ErrOutOfMemory) {
			return err
		}
	}
	s.deg.exhaustions.Add(1)
	// The postmortem carries the injected schedule: together with the seed
	// and plan (Stats().Fault) the exhaustion is replayable.
	reason := fmt.Sprintf("heap exhaustion survived %d degraded retries", s.pressure.MaxRetries)
	if sched := s.fj.ScheduleString(64); sched != "" {
		reason += "; injected schedule tail: " + sched
	}
	s.obs.CapturePostmortem(reason, 0)
	return err
}

// withPressure runs op under the heap-pressure policy. Cold-path helper for
// constructors; hot paths use retryPressure directly.
func (s *System) withPressure(op func() error) error {
	return s.retryPressure(op(), op)
}

// FaultStats is the fault injector's accounting: the seed, total injections,
// and per-point attempt/fire counts for every armed injection point.
type FaultStats struct {
	// Enabled reports whether a fault plan armed at least one point.
	Enabled bool `json:"enabled"`

	// Seed is the injector's seed; with the plan it reproduces the
	// schedule.
	Seed uint64 `json:"seed"`

	// Injected is the total number of firings across all points.
	Injected uint64 `json:"injected_total"`

	// Points is the per-point accounting, in declaration order.
	Points []FaultPointStats `json:"points,omitempty"`
}

// FaultPointStats is one injection point's accounting.
type FaultPointStats = fault.PointStat

// DegradedStats counts heap-pressure degraded-mode activity.
type DegradedStats struct {
	// PolicyEnabled reports whether a heap-pressure policy is installed.
	PolicyEnabled bool `json:"policy_enabled"`

	// Retries counts degraded-mode retry attempts; Recoveries counts
	// operations that succeeded on a retry; Exhaustions counts operations
	// that failed even after the full policy ran.
	Retries     int64 `json:"retries"`
	Recoveries  int64 `json:"recoveries"`
	Exhaustions int64 `json:"exhaustions"`

	// ZombiesDrained counts deferred-reclamation objects freed by
	// degraded-mode drains.
	ZombiesDrained int64 `json:"zombies_drained"`
}

// FaultFiring is one recorded injection: attempt ordinal Attempt at the named
// point fired.
type FaultFiring = fault.Firing

// FaultSchedule returns the retained log of injected firings, oldest first
// (bounded retention). With the seed and plan it makes a chaos run
// replayable: the same seed re-fires the same attempt ordinals. Without
// WithFaultPlan it returns nil.
func (s *System) FaultSchedule() []FaultFiring { return s.fj.Schedule() }
