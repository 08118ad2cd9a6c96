package lfrc_test

import (
	"testing"

	"lfrc"
)

// TestSteadyStateAllocatesNothing guards the allocation-free reclamation
// hand-off: once a structure's heap has warmed up (its slabs carved and its
// free lists stocked), facade loops that kill a node on every pop, dequeue
// or delete allocate nothing from the Go heap, on every {engine}x{strategy}
// cell (named with the backend last). A dead object travels to the
// reclaimer through its own link word, never in a Go slice.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	loops := []struct {
		name string
		run  func(t *testing.T, sys *lfrc.System) func()
	}{
		{"deque", dequeLoop},
		{"queue", queueLoop},
		{"set", setLoop},
	}
	for _, eng := range []lfrc.Engine{lfrc.EngineLocking, lfrc.EngineMCAS} {
		for _, strat := range []lfrc.RCStrategy{lfrc.RCFigure2, lfrc.RCSplit} {
			cell := eng.String() + "/" + strat.String() + "/" + backend
			for _, l := range loops {
				t.Run(cell+"/"+l.name, func(t *testing.T) {
					sys, err := lfrc.New(lfrc.WithEngine(eng), lfrc.WithRCStrategy(strat),
						lfrc.WithAllocShards(1))
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					step := l.run(t, sys)
					for range 256 { // warm up: carve, stock free lists
						step()
					}
					if n := testing.AllocsPerRun(200, step); n != 0 {
						t.Fatalf("%v Go allocations per step, want 0", n)
					}
				})
			}
		}
	}
}

// dequeLoop returns a deque push/pop mix over both ends; each pop kills a node.
func dequeLoop(t *testing.T, sys *lfrc.System) func() {
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatal(err)
	}
	for i := range lfrc.Value(8) {
		if err := d.PushLeft(i); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		if d.PushLeft(1) != nil || d.PushRight(2) != nil {
			t.Fatal("push failed")
		}
		if _, ok := d.PopRight(); !ok {
			t.Fatal("pop on a non-empty deque failed")
		}
		if _, ok := d.PopLeft(); !ok {
			t.Fatal("pop on a non-empty deque failed")
		}
	}
}

// queueLoop returns a wave of enqueues then as many dequeues; each dequeue
// kills the old dummy node.
func queueLoop(t *testing.T, sys *lfrc.System) func() {
	q, err := sys.NewQueue()
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		for i := range lfrc.Value(16) {
			if q.Enqueue(i) != nil {
				t.Fatal("enqueue failed")
			}
		}
		for range 16 {
			if _, ok := q.Dequeue(); !ok {
				t.Fatal("dequeue on a non-empty queue failed")
			}
		}
	}
}

// setLoop returns an insert/delete cycle over a few keys; each delete
// unlinks and kills a node.
func setLoop(t *testing.T, sys *lfrc.System) func() {
	s, err := sys.NewSet()
	if err != nil {
		t.Fatal(err)
	}
	for k := lfrc.Value(0); k < 32; k += 2 {
		if _, err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for k := lfrc.Value(1); k < 32; k += 4 {
			if ok, err := s.Insert(k); !ok || err != nil {
				t.Fatal("insert of an absent key failed")
			}
		}
		for k := lfrc.Value(1); k < 32; k += 4 {
			if !s.Delete(k) {
				t.Fatal("delete of a present key failed")
			}
		}
	}
}
