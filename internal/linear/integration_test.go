package linear

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/dlist"
	"lfrc/internal/mem"
	"lfrc/internal/msqueue"
	"lfrc/internal/snark"
	"lfrc/internal/stackrc"
)

// These tests record real concurrent histories from the LFRC structures and
// check them for linearizability — the concurrent half of the paper's
// "the transformation preserves semantics" claim (§3/§4).

type env struct {
	h  *mem.Heap
	rc *core.RC
}

func newEnv(t *testing.T, engine string, opts ...core.Option) *env {
	t.Helper()
	h := mem.NewHeap()
	var e dcas.Engine
	if engine == "mcas" {
		e = dcas.NewMCAS(h)
	} else {
		e = dcas.NewLocking(h)
	}
	return &env{h: h, rc: core.New(h, e, opts...)}
}

// config is one supported configuration: an engine plus the core options
// selecting its rc strategy.
type config struct {
	name, engine string
	opts         []core.Option
}

// configMatrix lists every {engine} x {rc strategy} cell. The
// paper-faithful figure2 cell keeps the bare engine name; split appends
// "-split", e.g. "mcas-split".
func configMatrix() []config {
	var out []config
	for _, engine := range []string{"locking", "mcas"} {
		for _, strat := range []core.StrategyKind{core.StrategyFigure2, core.StrategySplit} {
			name := engine
			if strat == core.StrategySplit {
				name += "-split"
			}
			out = append(out, config{name, engine, []core.Option{core.WithStrategyKind(strat)}})
		}
	}
	return out
}

// runRecorded drives ops workers through fn, recording each operation.
func runRecorded(t *testing.T, workers, opsPerWorker, maxConcurrent int, fn func(w, i int, rng *rand.Rand) Op) *History {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rec := NewRecorder(maxConcurrent)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 11))
			for i := 0; i < opsPerWorker; i++ {
				rec.Record(func() Op { return fn(w, i, rng) })
			}
		}(w)
	}
	wg.Wait()
	return rec.History()
}

func checkHistory(t *testing.T, spec Spec, h *History) {
	t.Helper()
	res, err := Check(spec, h)
	if err != nil {
		t.Fatalf("history not linearizable: %v", err)
	}
	if !res.Linearizable {
		t.Fatal("history not linearizable")
	}
	t.Logf("%d events linearizable (%d states explored)", res.Events, res.StatesExplored)
}

func TestSnarkClaimingDequeLinearizable(t *testing.T) {
	for _, engine := range []string{"locking", "mcas"} {
		t.Run(engine, func(t *testing.T) {
			e := newEnv(t, engine)
			d, err := snark.New(e.rc, snark.MustRegisterTypes(e.h), snark.WithValueClaiming())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			var next struct {
				sync.Mutex
				v uint64
			}
			next.v = 1
			fresh := func() uint64 {
				next.Lock()
				defer next.Unlock()
				v := next.v
				next.v++
				return v
			}

			h := runRecorded(t, 4, 500, 3, func(w, i int, rng *rand.Rand) Op {
				switch rng.Intn(4) {
				case 0:
					v := fresh()
					return Op{Action: ActPushLeft, Input: v, OK: d.PushLeft(v) == nil}
				case 1:
					v := fresh()
					return Op{Action: ActPushRight, Input: v, OK: d.PushRight(v) == nil}
				case 2:
					v, ok := d.PopLeft()
					return Op{Action: ActPopLeft, Output: v, OK: ok}
				default:
					v, ok := d.PopRight()
					return Op{Action: ActPopRight, Output: v, OK: ok}
				}
			})
			checkHistory(t, DequeSpec{}, h)
		})
	}
}

func TestMSQueueLinearizable(t *testing.T) {
	for _, engine := range []string{"locking", "mcas"} {
		t.Run(engine, func(t *testing.T) {
			e := newEnv(t, engine)
			q, err := msqueue.New(e.rc, msqueue.MustRegisterTypes(e.h))
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()

			h := runRecorded(t, 4, 500, 3, func(w, i int, rng *rand.Rand) Op {
				if rng.Intn(2) == 0 {
					v := uint64(w)<<32 | uint64(i) + 1
					return Op{Action: ActPushRight, Input: v, OK: q.Enqueue(v) == nil}
				}
				v, ok := q.Dequeue()
				return Op{Action: ActPopLeft, Output: v, OK: ok}
			})
			checkHistory(t, DequeSpec{}, h)
		})
	}
}

func TestTreiberStackLinearizable(t *testing.T) {
	for _, engine := range []string{"locking", "mcas"} {
		t.Run(engine, func(t *testing.T) {
			e := newEnv(t, engine)
			s, err := stackrc.New(e.rc, stackrc.MustRegisterTypes(e.h))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			h := runRecorded(t, 4, 500, 3, func(w, i int, rng *rand.Rand) Op {
				if rng.Intn(2) == 0 {
					v := uint64(w)<<32 | uint64(i) + 1
					return Op{Action: ActPushRight, Input: v, OK: s.Push(v) == nil}
				}
				v, ok := s.Pop()
				return Op{Action: ActPopRight, Output: v, OK: ok}
			})
			checkHistory(t, DequeSpec{}, h)
		})
	}
}

func TestSortedSetLinearizable(t *testing.T) {
	for _, cfg := range configMatrix() {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEnv(t, cfg.engine, cfg.opts...)
			l, err := dlist.New(e.rc, dlist.MustRegisterTypes(e.h))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			h := runRecorded(t, 4, 500, 3, func(w, i int, rng *rand.Rand) Op {
				k := uint64(rng.Intn(8)) // tiny key space: heavy contention
				switch rng.Intn(3) {
				case 0:
					ok, err := l.Insert(k)
					if err != nil {
						t.Errorf("Insert: %v", err)
					}
					return Op{Action: ActInsert, Input: k, OK: ok}
				case 1:
					return Op{Action: ActDelete, Input: k, OK: l.Delete(k)}
				default:
					return Op{Action: ActContains, Input: k, OK: l.Contains(k)}
				}
			})
			checkHistory(t, SetSpec{}, h)
		})
	}
}
