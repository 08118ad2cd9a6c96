package lfrc_test

import (
	"fmt"
	"log"

	"lfrc"
)

// Example demonstrates the complete lifecycle: every node a structure ever
// allocated is deterministically freed by its reference count at Close —
// no garbage collector involved.
func Example() {
	sys, err := lfrc.New()
	if err != nil {
		log.Fatal(err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		log.Fatal(err)
	}
	_ = d.PushRight(1)
	_ = d.PushRight(2)
	_ = d.PushLeft(0)
	var drained []lfrc.Value
	for {
		v, ok := d.PopLeft()
		if !ok {
			break
		}
		drained = append(drained, v)
	}
	fmt.Println(drained)
	d.Close()
	fmt.Printf("live objects after close: %d\n", sys.Stats().Heap.LiveObjects)
	// Output:
	// [0 1 2]
	// live objects after close: 0
}

// ExampleSystem_NewQueue shows the LFRC Michael–Scott queue.
func ExampleSystem_NewQueue() {
	sys, _ := lfrc.New()
	q, _ := sys.NewQueue()
	defer q.Close()

	for v := lfrc.Value(1); v <= 3; v++ {
		_ = q.Enqueue(v * 11)
	}
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// 11
	// 22
	// 33
}

// ExampleSystem_NewSet shows the DCAS-based sorted set.
func ExampleSystem_NewSet() {
	sys, _ := lfrc.New()
	s, _ := sys.NewSet()
	defer s.Close()

	for _, k := range []lfrc.Value{42, 7, 42, 13} {
		added, _ := s.Insert(k)
		fmt.Printf("insert %d: %v\n", k, added)
	}
	fmt.Println("keys:", s.Keys())
	// Output:
	// insert 42: true
	// insert 7: true
	// insert 42: false
	// insert 13: true
	// keys: [7 13 42]
}

// ExampleSet_All iterates a set with the Go 1.23 range-over-func iterator;
// Deque.Drain does the same for consuming a deque.
func ExampleSet_All() {
	sys, _ := lfrc.New()
	s, _ := sys.NewSet()
	defer s.Close()
	for _, k := range []lfrc.Value{42, 7, 13} {
		_, _ = s.Insert(k)
	}
	for k := range s.All() {
		fmt.Println(k)
	}
	// Output:
	// 7
	// 13
	// 42
}

// ExampleDeque_Drain consumes a deque with the range-over-func iterator:
// each value is delivered exactly once even with concurrent consumers.
func ExampleDeque_Drain() {
	sys, _ := lfrc.New()
	d, _ := sys.NewDeque()
	defer d.Close()
	for v := lfrc.Value(1); v <= 4; v++ {
		_ = d.PushRight(v * 10)
	}
	sum := lfrc.Value(0)
	for v := range d.Drain() {
		sum += v
	}
	fmt.Println("sum:", sum)
	// Output:
	// sum: 100
}

// ExampleWithFaultPlan arms the deterministic fault injector: the same plan
// and seed reproduce the identical injection schedule, so a failure found
// under chaos is replayable.
func ExampleWithFaultPlan() {
	sys, _ := lfrc.New(
		lfrc.WithFaultPlan("stack.push:nth=2+4"),
		lfrc.WithFaultSeed(7),
	)
	st, _ := sys.NewStack()
	defer st.Close()
	for v := lfrc.Value(1); v <= 4; v++ {
		_ = st.Push(v) // attempts 2 and 4 are forced to retry internally
	}
	for _, f := range sys.FaultSchedule() {
		fmt.Printf("%s@%d\n", f.Name, f.Attempt)
	}
	// Output:
	// stack.push@2
	// stack.push@4
}

// ExampleSystem_Audit shows the quiescent reference-count audit: the counts
// of a live structure are re-derived from the heap graph and must match
// exactly.
func ExampleSystem_Audit() {
	sys, _ := lfrc.New()
	d, _ := sys.NewDeque()
	defer d.Close()
	for v := lfrc.Value(1); v <= 100; v++ {
		_ = d.PushRight(v)
	}
	fmt.Println("violations:", len(sys.Audit()))
	// Output:
	// violations: 0
}

// ExampleWithEngine selects the lock-free software MCAS engine instead of
// the default hardware-DCAS simulation.
func ExampleWithEngine() {
	sys, _ := lfrc.New(lfrc.WithEngine(lfrc.EngineMCAS))
	fmt.Println(sys.EngineName())
	// Output:
	// mcas
}

// ExampleWithIncrementalDestroy bounds reclamation pauses: dropping a large
// structure parks the work, and DrainZombies finishes it in slices.
func ExampleWithIncrementalDestroy() {
	sys, _ := lfrc.New(lfrc.WithIncrementalDestroy(32))
	q, _ := sys.NewQueue()
	for v := lfrc.Value(1); v <= 1000; v++ {
		_ = q.Enqueue(v)
	}
	q.Close() // bounded work per release; the rest is parked
	sys.DrainZombies(0)
	fmt.Println("live objects:", sys.Stats().Heap.LiveObjects)
	// Output:
	// live objects: 0
}
