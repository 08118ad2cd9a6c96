package workload

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lfrc/internal/lifecycle"
)

// Mix is a weighted operation mix. Zero weights omit the operation.
type Mix struct {
	PushLeft, PushRight, PopLeft, PopRight int
}

// Balanced is the default 25/25/25/25 mix.
var Balanced = Mix{PushLeft: 1, PushRight: 1, PopLeft: 1, PopRight: 1}

// pick selects an operation index 0..3 by weight.
func (m Mix) pick(rng *rand.Rand) int {
	total := m.PushLeft + m.PushRight + m.PopLeft + m.PopRight
	n := rng.Intn(total)
	if n < m.PushLeft {
		return 0
	}
	n -= m.PushLeft
	if n < m.PushRight {
		return 1
	}
	n -= m.PushRight
	if n < m.PopLeft {
		return 2
	}
	return 3
}

// ThroughputResult reports one throughput run.
type ThroughputResult struct {
	// Ops is the total completed operations across all workers.
	Ops int64

	// Duration is the wall-clock measurement window.
	Duration time.Duration
}

// OpsPerSec is the headline rate.
func (r ThroughputResult) OpsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// RunThroughput drives d with workers goroutines applying mix for dur,
// after prefilling prefill elements. It reports the completed operations.
func RunThroughput(d Deque, workers int, dur time.Duration, mix Mix, prefill int) ThroughputResult {
	for i := 0; i < prefill; i++ {
		_ = d.PushRight(uint64(i + 1))
	}
	var (
		stop atomic.Bool
		ops  atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Label the worker for diagnosis: pprof profiles filter on
			// lfrc_workload/lfrc_worker, and ledger timelines touched by
			// this goroutine carry its name in Chrome trace export.
			lifecycle.Do("throughput", func() {
				rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
				local := int64(0)
				v := uint64(w)<<32 + 1
				for !stop.Load() {
					switch mix.pick(rng) {
					case 0:
						if d.PushLeft(v) == nil {
							v++
						}
					case 1:
						if d.PushRight(v) == nil {
							v++
						}
					case 2:
						d.PopLeft()
					case 3:
						d.PopRight()
					}
					local++
				}
				ops.Add(local)
			}, "lfrc_worker", strconv.Itoa(w))
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return ThroughputResult{Ops: ops.Load(), Duration: time.Since(start)}
}

// StallResult reports a stall-injection run (experiment E4).
type StallResult struct {
	// HealthyOps counts operations completed by non-stalled workers
	// while the victim was parked.
	HealthyOps int64

	// Duration is the parked window.
	Duration time.Duration

	// VictimParked reports whether the victim actually reached its park
	// point (it always should).
	VictimParked bool
}

// OpsPerSec is the healthy workers' rate during the stall.
func (r StallResult) OpsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.HealthyOps) / r.Duration.Seconds()
}

// RunWithStall measures the progress of healthy workers while one victim
// worker is parked mid-operation for dur. The caller supplies:
//
//   - arm: installs a park point and returns a release function; the park
//     point must fire on the victim's next operation (see the deques'
//     BeforeDCAS / HoldingLock hooks);
//   - parked: reports whether the victim has reached the park point.
//
// The victim issues one operation (which parks); healthy workers run the
// balanced mix meanwhile.
func RunWithStall(d Deque, healthy int, dur time.Duration, arm func() (release func()), parked func() bool) StallResult {
	release := arm()

	var victimWG sync.WaitGroup
	victimWG.Add(1)
	go func() {
		defer victimWG.Done()
		_ = d.PushRight(1) // parks inside
	}()

	deadline := time.Now().Add(5 * time.Second)
	for !parked() {
		if time.Now().After(deadline) {
			release()
			victimWG.Wait()
			return StallResult{}
		}
		runtime.Gosched()
	}

	var (
		stop atomic.Bool
		ops  atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < healthy; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lifecycle.Do("stall_healthy", func() {
				rng := rand.New(rand.NewSource(int64(w) + 42))
				local := int64(0)
				v := uint64(w)<<32 + 2
				for !stop.Load() {
					switch Balanced.pick(rng) {
					case 0:
						_ = d.PushLeft(v)
						v++
					case 1:
						_ = d.PushRight(v)
						v++
					case 2:
						d.PopLeft()
					case 3:
						d.PopRight()
					}
					local++
				}
				ops.Add(local)
			}, "lfrc_worker", strconv.Itoa(w))
		}(w)
	}
	timer := time.NewTimer(dur)
	<-timer.C
	stop.Store(true)
	elapsed := time.Since(start)
	// Release the victim before joining the healthy workers: under the
	// mutex deque they may be blocked on the lock the victim holds, which
	// is precisely the phenomenon being measured.
	release()
	victimWG.Wait()
	wg.Wait()
	return StallResult{HealthyOps: ops.Load(), Duration: elapsed, VictimParked: true}
}
