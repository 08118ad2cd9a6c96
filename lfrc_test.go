package lfrc_test

import (
	"runtime"
	"sync"
	"testing"

	"lfrc"
)

func systems(t *testing.T, opts ...lfrc.Option) map[string]*lfrc.System {
	t.Helper()
	out := make(map[string]*lfrc.System, 2)
	for _, e := range []lfrc.Engine{lfrc.EngineLocking, lfrc.EngineMCAS} {
		sys, err := lfrc.New(append([]lfrc.Option{lfrc.WithEngine(e)}, opts...)...)
		if err != nil {
			t.Fatalf("New(%v): %v", e, err)
		}
		out[e.String()] = sys
	}
	return out
}

func TestQuickstartFlow(t *testing.T) {
	for name, sys := range systems(t) {
		t.Run(name, func(t *testing.T) {
			d, err := sys.NewDeque()
			if err != nil {
				t.Fatalf("NewDeque: %v", err)
			}
			if err := d.PushRight(42); err != nil {
				t.Fatalf("PushRight: %v", err)
			}
			if err := d.PushLeft(7); err != nil {
				t.Fatalf("PushLeft: %v", err)
			}
			if v, ok := d.PopLeft(); !ok || v != 7 {
				t.Fatalf("PopLeft = (%d,%v), want (7,true)", v, ok)
			}
			if v, ok := d.PopRight(); !ok || v != 42 {
				t.Fatalf("PopRight = (%d,%v), want (42,true)", v, ok)
			}
			d.Close()
			if got := sys.Stats().Heap.LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d after Close, want 0", got)
			}
		})
	}
}

func TestAllStructuresRoundTrip(t *testing.T) {
	for name, sys := range systems(t) {
		t.Run(name, func(t *testing.T) {
			d, _ := sys.NewDeque()
			q, _ := sys.NewQueue()
			s, _ := sys.NewStack()

			for v := lfrc.Value(1); v <= 100; v++ {
				if err := d.PushRight(v); err != nil {
					t.Fatal(err)
				}
				if err := q.Enqueue(v); err != nil {
					t.Fatal(err)
				}
				if err := s.Push(v); err != nil {
					t.Fatal(err)
				}
			}
			for v := lfrc.Value(1); v <= 100; v++ {
				if got, ok := d.PopLeft(); !ok || got != v {
					t.Fatalf("deque: (%d,%v), want (%d,true)", got, ok, v)
				}
				if got, ok := q.Dequeue(); !ok || got != v {
					t.Fatalf("queue: (%d,%v), want (%d,true)", got, ok, v)
				}
				want := 101 - v
				if got, ok := s.Pop(); !ok || got != want {
					t.Fatalf("stack: (%d,%v), want (%d,true)", got, ok, want)
				}
			}
			d.Close()
			q.Close()
			s.Close()
			if got := sys.Stats().Heap.LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d, want 0", got)
			}
		})
	}
}

func TestAuditOnLiveSystem(t *testing.T) {
	for name, sys := range systems(t) {
		t.Run(name, func(t *testing.T) {
			d, _ := sys.NewDeque()
			q, _ := sys.NewQueue()
			for v := lfrc.Value(1); v <= 50; v++ {
				_ = d.PushLeft(v)
				_ = q.Enqueue(v)
			}
			d.PopRight()
			q.Dequeue()

			if vs := sys.Audit(); len(vs) != 0 {
				t.Errorf("Audit found violations: %v", vs)
			}
			d.Close()
			q.Close()
		})
	}
}

func TestCollectIsNoOpOnAcyclicStructures(t *testing.T) {
	sys, err := lfrc.New()
	if err != nil {
		t.Fatal(err)
	}
	d, _ := sys.NewDeque()
	for v := lfrc.Value(1); v <= 50; v++ {
		_ = d.PushRight(v)
	}
	res := sys.Collect()
	if res.Freed != 0 {
		t.Errorf("Collect freed %d objects from a healthy structure", res.Freed)
	}
	if res.Marked == 0 {
		t.Error("Collect marked nothing; structure roots not registered?")
	}
	// The structure still works.
	for v := lfrc.Value(1); v <= 50; v++ {
		if got, ok := d.PopLeft(); !ok || got != v {
			t.Fatalf("PopLeft = (%d,%v), want (%d,true)", got, ok, v)
		}
	}
	d.Close()
}

// TestCollectDrainsZombiesFirst: with an incremental-destroy budget, closing
// a deque parks zombies on the zombie stack. A collection must not free them
// under the stack: a later drain would release freed slots again.
func TestCollectDrainsZombiesFirst(t *testing.T) {
	sys, err := lfrc.New(lfrc.WithIncrementalDestroy(1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatal(err)
	}
	for v := lfrc.Value(1); v <= 100; v++ {
		if err := d.PushRight(v); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	if sys.ZombieCount() == 0 {
		t.Fatal("precondition: Close parked no zombies")
	}
	res := sys.Collect()
	if n := sys.ZombieCount(); n != 0 {
		t.Errorf("ZombieCount = %d after Collect, want 0", n)
	}
	sys.DrainZombies(0)
	if n := sys.Stats().RC.FreeErrors; n != 0 {
		t.Errorf("FreeErrors = %d, want 0", n)
	}
	if vs := sys.Audit(); len(vs) != 0 {
		t.Errorf("Audit after drain: %v", vs)
	}
	if n := sys.Stats().Heap.LiveObjects; n != 0 {
		t.Errorf("LiveObjects = %d after Collect %+v and drain, want 0", n, res)
	}
}

func TestValueClaimingOption(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sys, err := lfrc.New()
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.NewDeque(lfrc.WithValueClaiming())
	if err != nil {
		t.Fatal(err)
	}

	const workers, perW = 4, 1000
	var (
		mu     sync.Mutex
		popped = map[lfrc.Value]int{}
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				v := lfrc.Value(w*perW + i + 1)
				_ = d.PushLeft(v)
				if got, ok := d.PopRight(); ok {
					mu.Lock()
					popped[got]++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	for {
		v, ok := d.PopLeft()
		if !ok {
			break
		}
		popped[v]++
	}
	for v, n := range popped {
		if n != 1 {
			t.Errorf("value %d delivered %d times", v, n)
		}
	}
	if len(popped) != workers*perW {
		t.Errorf("delivered %d distinct values, want %d", len(popped), workers*perW)
	}
	d.Close()
}

func TestIncrementalDestroyOption(t *testing.T) {
	sys, err := lfrc.New(lfrc.WithIncrementalDestroy(16))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := sys.NewQueue()
	for v := lfrc.Value(1); v <= 1000; v++ {
		_ = q.Enqueue(v)
	}
	q.Close()

	if sys.Stats().Heap.LiveObjects == 0 && sys.ZombieCount() == 0 {
		// Nothing deferred: acceptable only if drain already happened.
		return
	}
	sys.DrainZombies(0)
	if got := sys.Stats().Heap.LiveObjects; got != 0 {
		t.Errorf("LiveObjects = %d after drain, want 0", got)
	}
}

func TestHeapLimitSurfacesError(t *testing.T) {
	sys, err := lfrc.New(lfrc.WithMaxHeapWords(1 << 16))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.NewQueue()
	if err != nil {
		t.Fatal(err)
	}
	var enq lfrc.Value
	for {
		if err := q.Enqueue(enq); err != nil {
			break
		}
		enq++
		if enq > 1<<20 {
			t.Fatal("tiny heap never filled up")
		}
	}
	// Freeing memory makes enqueues work again.
	for i := 0; i < 100; i++ {
		if _, ok := q.Dequeue(); !ok {
			t.Fatal("queue empty while freeing room")
		}
	}
	if err := q.Enqueue(999); err != nil {
		t.Errorf("Enqueue after freeing room: %v", err)
	}
	q.Close()
}

func TestPushRejectsTooLargeValue(t *testing.T) {
	sys, _ := lfrc.New()
	d, _ := sys.NewDeque()
	defer d.Close()
	if err := d.PushLeft(lfrc.MaxValue + 1); err == nil {
		t.Error("PushLeft accepted out-of-range value")
	}
	if err := d.PushLeft(lfrc.MaxValue); err != nil {
		t.Errorf("PushLeft rejected MaxValue: %v", err)
	}
}

func TestEngineString(t *testing.T) {
	if lfrc.EngineLocking.String() != "locking" || lfrc.EngineMCAS.String() != "mcas" {
		t.Error("Engine.String mismatch")
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	if _, err := lfrc.New(lfrc.WithEngine(lfrc.Engine(42))); err == nil {
		t.Error("New accepted an unknown engine")
	}
}

func TestStatsExposed(t *testing.T) {
	sys, _ := lfrc.New()
	d, _ := sys.NewDeque()
	_ = d.PushLeft(1)
	d.PopRight()
	d.Close()

	s := sys.Stats()
	if s.Heap.Allocs == 0 || s.Heap.Frees == 0 {
		t.Errorf("Stats.Heap not populated: %+v", s.Heap)
	}
	if s.RC.Loads == 0 || s.RC.DCASOps == 0 {
		t.Errorf("Stats.RC not populated: %+v", s.RC)
	}
	if sys.EngineName() != "locking" {
		t.Errorf("EngineName = %q", sys.EngineName())
	}
}
