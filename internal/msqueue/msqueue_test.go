package msqueue

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

type world struct {
	h  *mem.Heap
	rc *core.RC
	ts Types
}

// worldFactories builds one world per {engine} x {rc strategy} cell, named
// as internal/linear's configMatrix: figure2 cells by engine alone, split
// cells with a "-split" suffix.
func worldFactories() map[string]func(t *testing.T) *world {
	mk := func(engine func(h *mem.Heap) dcas.Engine, k core.StrategyKind) func(t *testing.T) *world {
		return func(t *testing.T) *world {
			t.Helper()
			h := mem.NewHeap()
			return &world{h: h, rc: core.New(h, engine(h), core.WithStrategyKind(k)), ts: MustRegisterTypes(h)}
		}
	}
	locking := func(h *mem.Heap) dcas.Engine { return dcas.NewLocking(h) }
	mcas := func(h *mem.Heap) dcas.Engine { return dcas.NewMCAS(h) }
	return map[string]func(t *testing.T) *world{
		"locking":       mk(locking, core.StrategyFigure2),
		"mcas":          mk(mcas, core.StrategyFigure2),
		"locking-split": mk(locking, core.StrategySplit),
		"mcas-split":    mk(mcas, core.StrategySplit),
	}
}

func newQueue(t *testing.T, w *world) *Queue {
	t.Helper()
	q, err := New(w.rc, w.ts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return q
}

func TestEmptyDequeue(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			q := newQueue(t, w)
			defer q.Close()
			if _, ok := q.Dequeue(); ok {
				t.Error("Dequeue on empty queue reported a value")
			}
		})
	}
}

func TestFIFOOrder(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			q := newQueue(t, w)
			defer q.Close()

			for v := Value(1); v <= 100; v++ {
				if err := q.Enqueue(v); err != nil {
					t.Fatalf("Enqueue: %v", err)
				}
			}
			for v := Value(1); v <= 100; v++ {
				got, ok := q.Dequeue()
				if !ok || got != v {
					t.Fatalf("Dequeue = (%d,%v), want (%d,true)", got, ok, v)
				}
			}
			if _, ok := q.Dequeue(); ok {
				t.Error("queue not empty at end")
			}
		})
	}
}

func TestQuickFIFOModel(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				w := mk(t)
				q := newQueue(t, w)
				defer q.Close()

				var model []Value
				next := Value(1)
				for i := 0; i < 300; i++ {
					if rng.Intn(2) == 0 {
						if q.Enqueue(next) != nil {
							return false
						}
						model = append(model, next)
						next++
					} else {
						v, ok := q.Dequeue()
						if ok != (len(model) > 0) {
							return false
						}
						if ok {
							if v != model[0] {
								return false
							}
							model = model[1:]
						}
					}
				}
				for _, want := range model {
					v, ok := q.Dequeue()
					if !ok || v != want {
						return false
					}
				}
				_, ok := q.Dequeue()
				return !ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCloseReclaimsEverything(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			q := newQueue(t, w)
			for v := Value(0); v < 200; v++ {
				if err := q.Enqueue(v); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				q.Dequeue()
			}
			q.Close()
			if got := w.h.Stats().LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d after Close, want 0", got)
			}
		})
	}
}

// TestConcurrentExactSemantics asserts exact multiset delivery under
// concurrency: Michael–Scott is linearizable, and the LFRC transformation
// must preserve that (paper §3; experiment E9's queue leg).
func TestConcurrentExactSemantics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			q := newQueue(t, w)

			const producers, consumers, perP = 4, 4, 1500
			var (
				mu   sync.Mutex
				got  = make(map[Value]int)
				done atomic.Int64
				wg   sync.WaitGroup
			)
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					defer done.Add(1)
					for i := 0; i < perP; i++ {
						if err := q.Enqueue(Value(p*perP + i + 1)); err != nil {
							t.Errorf("Enqueue: %v", err)
							return
						}
					}
				}(p)
			}
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						v, ok := q.Dequeue()
						if ok {
							mu.Lock()
							got[v]++
							mu.Unlock()
							continue
						}
						if done.Load() == producers {
							if v, ok := q.Dequeue(); ok {
								mu.Lock()
								got[v]++
								mu.Unlock()
								continue
							}
							return
						}
						runtime.Gosched()
					}
				}()
			}
			wg.Wait()

			if len(got) != producers*perP {
				t.Errorf("got %d distinct values, want %d", len(got), producers*perP)
			}
			for v, n := range got {
				if n != 1 {
					t.Errorf("value %d delivered %d times", v, n)
				}
			}
			q.Close()

			hs := w.h.Stats()
			if hs.LiveObjects != 0 || hs.Corruptions != 0 || hs.DoubleFrees != 0 {
				t.Errorf("Live=%d Corruptions=%d DoubleFrees=%d, want 0/0/0",
					hs.LiveObjects, hs.Corruptions, hs.DoubleFrees)
			}
		})
	}
}

// TestPerItemFIFOPerProducer checks the queue preserves each producer's
// internal order at the consumer (single consumer).
func TestPerProducerOrderPreserved(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			q := newQueue(t, w)
			defer q.Close()

			const producers, perP = 4, 1000
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perP; i++ {
						// Value encodes (producer, seq).
						if err := q.Enqueue(Value(p)<<32 | Value(i)); err != nil {
							t.Errorf("Enqueue: %v", err)
							return
						}
					}
				}(p)
			}
			wg.Wait()

			lastSeq := map[Value]int64{}
			for i := 0; i < producers*perP; i++ {
				v, ok := q.Dequeue()
				if !ok {
					t.Fatalf("premature empty at %d", i)
				}
				p, seq := v>>32, int64(v&0xFFFFFFFF)
				if last, seen := lastSeq[p]; seen && seq <= last {
					t.Fatalf("producer %d order violated: %d after %d", p, seq, last)
				}
				lastSeq[p] = seq
			}
		})
	}
}

func TestGoQueueMatchesLFRCQueue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := mem.NewHeap()
		rc := core.New(h, dcas.NewLocking(h))
		lq, err := New(rc, MustRegisterTypes(h))
		if err != nil {
			return false
		}
		defer lq.Close()
		gq := NewGoQueue()

		next := Value(1)
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 {
				if lq.Enqueue(next) != nil {
					return false
				}
				gq.Enqueue(next)
				next++
			} else {
				lv, lok := lq.Dequeue()
				gv, gok := gq.Dequeue()
				if lok != gok || lv != gv {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
