package snark

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

// world bundles a heap, RC and registered types for deque tests.
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

func newDeque(t *testing.T, w *world, opts ...Option) *Deque {
	t.Helper()
	d, err := New(w.rc, w.ts, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestEmptyDequePops(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			d := newDeque(t, w)
			defer d.Close()

			if _, ok := d.PopLeft(); ok {
				t.Error("PopLeft on empty deque reported a value")
			}
			if _, ok := d.PopRight(); ok {
				t.Error("PopRight on empty deque reported a value")
			}
		})
	}
}

func TestPushPopSingleRight(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			d := newDeque(t, w)
			defer d.Close()

			if err := d.PushRight(42); err != nil {
				t.Fatalf("PushRight: %v", err)
			}
			v, ok := d.PopRight()
			if !ok || v != 42 {
				t.Fatalf("PopRight = (%d,%v), want (42,true)", v, ok)
			}
			if _, ok := d.PopRight(); ok {
				t.Error("deque not empty after popping its only element")
			}
		})
	}
}

func TestAllFourOpCombinations(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			tests := []struct {
				name string
				push func(d *Deque, v Value) error
				pop  func(d *Deque) (Value, bool)
				want []Value // pop order for pushes 1,2,3
			}{
				{
					name: "pushR popR (stack)",
					push: (*Deque).PushRight, pop: (*Deque).PopRight,
					want: []Value{3, 2, 1},
				},
				{
					name: "pushR popL (queue)",
					push: (*Deque).PushRight, pop: (*Deque).PopLeft,
					want: []Value{1, 2, 3},
				},
				{
					name: "pushL popR (queue)",
					push: (*Deque).PushLeft, pop: (*Deque).PopRight,
					want: []Value{1, 2, 3},
				},
				{
					name: "pushL popL (stack)",
					push: (*Deque).PushLeft, pop: (*Deque).PopLeft,
					want: []Value{3, 2, 1},
				},
			}
			for _, tt := range tests {
				t.Run(tt.name, func(t *testing.T) {
					w := mk(t)
					d := newDeque(t, w)
					defer d.Close()

					for v := Value(1); v <= 3; v++ {
						if err := tt.push(d, v); err != nil {
							t.Fatalf("push: %v", err)
						}
					}
					for _, want := range tt.want {
						v, ok := tt.pop(d)
						if !ok || v != want {
							t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, want)
						}
					}
					if _, ok := tt.pop(d); ok {
						t.Error("deque not empty at end")
					}
				})
			}
		})
	}
}

func TestInterleavedEndsRefillAfterEmpty(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			d := newDeque(t, w)
			defer d.Close()

			// Empty -> fill -> empty -> refill exercises the
			// dummy/sentinel transitions on both sides.
			for round := 0; round < 5; round++ {
				for v := Value(0); v < 10; v++ {
					if v%2 == 0 {
						if err := d.PushLeft(v); err != nil {
							t.Fatal(err)
						}
					} else {
						if err := d.PushRight(v); err != nil {
							t.Fatal(err)
						}
					}
				}
				got := map[Value]bool{}
				for i := 0; i < 10; i++ {
					var v Value
					var ok bool
					if i%2 == 0 {
						v, ok = d.PopRight()
					} else {
						v, ok = d.PopLeft()
					}
					if !ok {
						t.Fatalf("round %d: premature empty at %d", round, i)
					}
					if got[v] {
						t.Fatalf("round %d: duplicate %d", round, v)
					}
					got[v] = true
				}
				if _, ok := d.PopLeft(); ok {
					t.Fatalf("round %d: deque not empty", round)
				}
			}
		})
	}
}

func TestPushRejectsOutOfRangeValue(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			d := newDeque(t, w)
			defer d.Close()
			if err := d.PushRight(MaxValue + 1); err == nil {
				t.Error("PushRight accepted out-of-range value")
			}
			if err := d.PushLeft(MaxValue + 1); err == nil {
				t.Error("PushLeft accepted out-of-range value")
			}
		})
	}
}

// TestSequentialModelEquivalence property-tests the deque against a slice
// model over random operation scripts from both ends.
func TestSequentialModelEquivalence(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				w := mk(t)
				d := newDeque(t, w)
				defer d.Close()

				var model []Value
				next := Value(1)
				for i := 0; i < 300; i++ {
					switch rng.Intn(4) {
					case 0:
						if d.PushLeft(next) != nil {
							return false
						}
						model = append([]Value{next}, model...)
						next++
					case 1:
						if d.PushRight(next) != nil {
							return false
						}
						model = append(model, next)
						next++
					case 2:
						v, ok := d.PopLeft()
						if ok != (len(model) > 0) {
							return false
						}
						if ok {
							if v != model[0] {
								return false
							}
							model = model[1:]
						}
					case 3:
						v, ok := d.PopRight()
						if ok != (len(model) > 0) {
							return false
						}
						if ok {
							if v != model[len(model)-1] {
								return false
							}
							model = model[:len(model)-1]
						}
					}
				}
				// Drain and compare the remainder left-to-right.
				for _, want := range model {
					v, ok := d.PopLeft()
					if !ok || v != want {
						return false
					}
				}
				_, ok := d.PopLeft()
				return !ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCloseReclaimsEverything(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			d := newDeque(t, w)
			for v := Value(0); v < 100; v++ {
				if err := d.PushRight(v); err != nil {
					t.Fatal(err)
				}
			}
			// Pop a few to create sentinel garbage, then close with
			// elements still enqueued.
			for i := 0; i < 10; i++ {
				d.PopLeft()
				d.PopRight()
			}
			d.Close()

			if got := w.h.Stats().LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d after Close, want 0", got)
			}
			if got := w.h.Stats().Corruptions; got != 0 {
				t.Errorf("Corruptions = %d, want 0", got)
			}
		})
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			d := newDeque(t, w)
			d.PushLeft(1)
			d.Close()
			d.Close() // must not double-free
			if got := w.h.Stats().DoubleFrees; got != 0 {
				t.Errorf("DoubleFrees = %d, want 0", got)
			}
		})
	}
}

// TestCyclicSentinelsLeak pins the behaviour the methodology's Step 3
// eliminates: with the original self-pointer sentinels, each pop strands a
// one-node garbage cycle that reference counting can never reclaim (paper
// §3 step 3, §4 and experiment E7).
func TestCyclicSentinelsLeak(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			d := newDeque(t, w, WithCyclicSentinels())

			const n = 50
			for v := Value(0); v < n; v++ {
				if err := d.PushRight(v); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				if _, ok := d.PopRight(); !ok {
					t.Fatalf("premature empty at %d", i)
				}
			}
			d.Close()

			leaked := w.h.Stats().LiveObjects
			if leaked == 0 {
				t.Fatal("cyclic-sentinel deque leaked nothing; expected stranded cycles")
			}
			t.Logf("cyclic sentinels stranded %d objects across %d pops", leaked, n)
		})
	}
}

// TestNullSentinelsDoNotLeak is the transformed counterpart of the test
// above: the identical workload with Step 3 applied leaves zero live
// objects.
func TestNullSentinelsDoNotLeak(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			d := newDeque(t, w)

			const n = 50
			for v := Value(0); v < n; v++ {
				if err := d.PushRight(v); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				if _, ok := d.PopRight(); !ok {
					t.Fatalf("premature empty at %d", i)
				}
			}
			d.Close()

			if got := w.h.Stats().LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d, want 0", got)
			}
		})
	}
}

// TestMemoryShrinksAfterDrain checks the paper's §1 claim that LFRC lets a
// structure's memory consumption grow and shrink over time: live words after
// draining return to the resting footprint.
func TestMemoryShrinksAfterDrain(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			d := newDeque(t, w)
			defer d.Close()

			resting := w.h.Stats().LiveWords
			for v := Value(0); v < 1000; v++ {
				if err := d.PushRight(v); err != nil {
					t.Fatal(err)
				}
			}
			grown := w.h.Stats().LiveWords
			if grown <= resting {
				t.Fatalf("LiveWords did not grow: %d -> %d", resting, grown)
			}
			for {
				if _, ok := d.PopLeft(); !ok {
					break
				}
			}
			if got := w.h.Stats().LiveWords; got != resting {
				t.Errorf("LiveWords after drain = %d, want resting %d", got, resting)
			}
		})
	}
}

func TestMultipleDequesShareHeap(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			d1 := newDeque(t, w)
			d2 := newDeque(t, w)

			for v := Value(0); v < 20; v++ {
				if err := d1.PushRight(v); err != nil {
					t.Fatal(err)
				}
				if err := d2.PushLeft(v + 100); err != nil {
					t.Fatal(err)
				}
			}
			for v := Value(0); v < 20; v++ {
				got, ok := d1.PopLeft()
				if !ok || got != v {
					t.Fatalf("d1.PopLeft = (%d,%v), want (%d,true)", got, ok, v)
				}
				got, ok = d2.PopRight()
				if !ok || got != v+100 {
					t.Fatalf("d2.PopRight = (%d,%v), want (%d,true)", got, ok, v+100)
				}
			}
			d1.Close()
			d2.Close()
			if got := w.h.Stats().LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d, want 0", got)
			}
		})
	}
}
