package workload

import (
	"sync/atomic"
	"time"

	"lfrc/internal/snark"
)

// RunE4 measures progress while one thread is stalled mid-operation
// (paper §1: lock-free programming overcomes "susceptibility to delays and
// failures"). The LFRC deque's victim parks immediately before its hat DCAS
// while holding counted references; the mutex deque's victim parks while
// holding the lock. Healthy-worker throughput during the stall is the
// metric.
func RunE4(kind EngineKind, dur time.Duration) *Table {
	t := &Table{
		ID:     "E4",
		Title:  "healthy-worker throughput while one worker is stalled mid-operation",
		Claim:  "§1: lock-freedom guarantees some operation completes regardless of delayed threads",
		Header: []string{"implementation", "engine", "healthy workers", "ops during stall", "ops/sec"},
		Notes: []string{
			"expected shape: lfrc-snark sustains throughput; mutex deque collapses to ~0",
		},
	}
	const healthy = 3

	// LFRC snark: the victim parks before its first DCAS.
	{
		env := NewEnv(kind)
		park := make(chan struct{})
		var armed, parked atomic.Bool
		d, err := env.NewDeque(snark.WithBeforeDCAS(func() {
			if armed.Load() && armed.CompareAndSwap(true, false) {
				parked.Store(true)
				<-park
			}
		}))
		if err != nil {
			t.Notes = append(t.Notes, "setup failed: "+err.Error())
			return t
		}
		for i := 0; i < 64; i++ {
			_ = d.PushRight(uint64(i + 1))
		}
		res := RunWithStall(SnarkAdapter{D: d}, healthy, dur,
			func() func() {
				armed.Store(true)
				var once atomic.Bool
				return func() {
					if once.CompareAndSwap(false, true) {
						close(park)
					}
				}
			},
			parked.Load,
		)
		t.AddRow("lfrc snark", kind.String(), healthy, res.HealthyOps, res.OpsPerSec())
		d.Close()
	}

	// Mutex deque: the victim parks while holding the lock.
	{
		d := NewMutexDeque()
		park := make(chan struct{})
		var armed, parked atomic.Bool
		d.HoldingLock = func() {
			if armed.Load() && armed.CompareAndSwap(true, false) {
				parked.Store(true)
				<-park
			}
		}
		for i := 0; i < 64; i++ {
			_ = d.PushRight(uint64(i + 1))
		}
		res := RunWithStall(d, healthy, dur,
			func() func() {
				armed.Store(true)
				var once atomic.Bool
				return func() {
					if once.CompareAndSwap(false, true) {
						close(park)
					}
				}
			},
			parked.Load,
		)
		t.AddRow("mutex deque", "-", healthy, res.HealthyOps, res.OpsPerSec())
	}
	return t
}
