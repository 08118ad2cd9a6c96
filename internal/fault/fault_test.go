package fault

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "core.load:p=0.25;snark.popright:nth=3+7,stall;mem.alloc:every=100,limit=5"
	pl, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r := pl.Rule(CoreLoad); r.Prob != 0.25 {
		t.Fatalf("core.load prob = %v, want 0.25", r.Prob)
	}
	if r := pl.Rule(SnarkPopRight); len(r.Nth) != 2 || r.Nth[0] != 3 || r.Nth[1] != 7 || !r.Stall {
		t.Fatalf("snark.popright rule = %+v", r)
	}
	if r := pl.Rule(MemAlloc); r.EveryN != 100 || r.Limit != 5 {
		t.Fatalf("mem.alloc rule = %+v", r)
	}
	// String renders a spec Parse accepts and that builds the same rules.
	pl2, err := Parse(pl.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", pl.String(), err)
	}
	for p := Point(0); p < NumPoints; p++ {
		a, b := pl.Rule(p), pl2.Rule(p)
		if a.Prob != b.Prob || a.EveryN != b.EveryN || len(a.Nth) != len(b.Nth) ||
			a.Limit != b.Limit || a.Stall != b.Stall {
			t.Fatalf("%v: round-trip mismatch %+v vs %+v", p, a, b)
		}
	}
}

func TestParseGlob(t *testing.T) {
	pl, err := Parse("core.*:every=10")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{CoreLoad, CoreStore, CoreStoreAlloc, CoreCAS, CoreDCAS, CoreAddToRC} {
		if pl.Rule(p).EveryN != 10 {
			t.Fatalf("%v not covered by core.*", p)
		}
	}
	if r := pl.Rule(SnarkPushLeft); r.enabled() {
		t.Fatal("snark point armed by core.* glob")
	}
	if r := pl.Rule(ReclaimPush); r.enabled() {
		t.Fatal("reclaim point armed by core.* glob")
	}
	rpl, err := Parse("reclaim.*:every=7")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{ReclaimPush, ReclaimDrain} {
		if rpl.Rule(p).EveryN != 7 {
			t.Fatalf("%v not covered by reclaim.*", p)
		}
	}
	if r := rpl.Rule(CoreLoad); r.enabled() {
		t.Fatal("core point armed by reclaim.* glob")
	}
	all, err := Parse("*:p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	for p := Point(0); p < NumPoints; p++ {
		if r := all.Rule(p); !r.enabled() {
			t.Fatalf("%v not covered by *", p)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"nosuchpoint:p=0.5",
		"core.load",
		"core.load:p=1.5",
		"core.load:every=0",
		"core.load:nth=0",
		"core.load:frobnicate=1",
		"zzz.*:p=0.1",
		"core.load:delay=-5ms",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	// Action-only rules default to every=1.
	pl, err := Parse("core.load:gosched,stall")
	if err != nil {
		t.Fatal(err)
	}
	if r := pl.Rule(CoreLoad); r.EveryN != 1 || !r.Gosched || !r.Stall {
		t.Fatalf("action-only rule = %+v", r)
	}
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if in.Inject(CoreLoad) || in.Would(CoreLoad, 1) || in.Enabled() {
		t.Fatal("nil injector injected")
	}
	if in.Stats() != nil || in.Schedule() != nil || in.Seed() != 0 || in.Fires() != 0 {
		t.Fatal("nil injector reported state")
	}
	if s := in.ScheduleString(0); s != "" {
		t.Fatalf("nil schedule string %q", s)
	}
	pl := &Plan{}
	if NewInjector(pl, 1) != nil {
		t.Fatal("empty plan built a non-nil injector")
	}
	if NewInjector(nil, 1) != nil {
		t.Fatal("nil plan built a non-nil injector")
	}
}

func TestNthSchedule(t *testing.T) {
	pl, err := Parse("stack.push:nth=2+5+9")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(pl, 42)
	var fired []int
	for n := 1; n <= 12; n++ {
		if in.Inject(StackPush) {
			fired = append(fired, n)
		}
	}
	want := []int{2, 5, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	st := in.Stats()
	if len(st) != 1 || st[0].Point != StackPush || st[0].Attempts != 12 || st[0].Fires != 3 {
		t.Fatalf("stats %+v", st)
	}
	sched := in.Schedule()
	if len(sched) != 3 || sched[0].Attempt != 2 || sched[2].Attempt != 9 {
		t.Fatalf("schedule %+v", sched)
	}
	if s := in.ScheduleString(2); s != "stack.push@5 stack.push@9" {
		t.Fatalf("schedule string %q", s)
	}
}

func TestEveryNAndLimit(t *testing.T) {
	pl, err := Parse("queue.enqueue:every=3,limit=2")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(pl, 7)
	fires := 0
	for n := 1; n <= 30; n++ {
		if in.Inject(QueueEnqueue) {
			fires++
		}
	}
	if fires != 2 {
		t.Fatalf("fired %d times, want 2 (limit)", fires)
	}
}

// TestDeterministicSameSeed is the core guarantee: the decision for attempt n
// at point p is a pure function of (seed, p, n), so two injectors with the
// same seed and plan agree on every attempt, and Would reproduces Inject.
func TestDeterministicSameSeed(t *testing.T) {
	pl, err := Parse("core.load:p=0.1;core.cas:p=0.5;set.insert:p=0.01")
	if err != nil {
		t.Fatal(err)
	}
	a := NewInjector(pl, 12345)
	b := NewInjector(pl, 12345)
	diff := NewInjector(pl, 54321)
	same, divergent := true, false
	for n := uint64(1); n <= 5000; n++ {
		for _, p := range []Point{CoreLoad, CoreCAS, SetInsert} {
			av, bv := a.Inject(p), b.Inject(p)
			if av != bv {
				same = false
			}
			if av != a.Would(p, n) {
				t.Fatalf("Inject(%v) attempt %d disagrees with Would", p, n)
			}
			if av != diff.Would(p, n) {
				divergent = true
			}
		}
	}
	if !same {
		t.Fatal("same seed produced different firing sequences")
	}
	if !divergent {
		t.Fatal("different seeds produced identical sequences (suspicious hash)")
	}
}

// TestDeterministicUnderConcurrency hammers one point from many goroutines
// and verifies the recorded schedule matches the pure predicate: firing is a
// property of the attempt ordinal, not of scheduling.
func TestDeterministicUnderConcurrency(t *testing.T) {
	pl, err := Parse("core.dcas:p=0.05")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(pl, 99)
	var wg sync.WaitGroup
	const goroutines, per = 8, 400 // 3200 attempts < scheduleLen: nothing evicted
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				in.Inject(CoreDCAS)
			}
		}()
	}
	wg.Wait()
	sched := in.Schedule()
	want := 0
	for n := uint64(1); n <= goroutines*per; n++ {
		if in.Would(CoreDCAS, n) {
			want++
		}
	}
	if len(sched) != want {
		t.Fatalf("recorded %d firings, predicate says %d", len(sched), want)
	}
	for _, f := range sched {
		if !in.Would(f.Point, f.Attempt) {
			t.Fatalf("recorded firing %+v not predicted by Would", f)
		}
	}
}

func TestProbabilityRoughlyHolds(t *testing.T) {
	pl, err := Parse("mem.alloc:p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(pl, 3)
	const n = 20000
	fires := 0
	for i := 0; i < n; i++ {
		if in.Inject(MemAlloc) {
			fires++
		}
	}
	got := float64(fires) / n
	if got < 0.17 || got > 0.23 {
		t.Fatalf("p=0.2 fired at rate %v", got)
	}
}

func TestStallDelaysWithoutFailing(t *testing.T) {
	pl, err := Parse("snark.popleft:stall,delay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(pl, 1)
	t0 := time.Now()
	if in.Inject(SnarkPopLeft) {
		t.Fatal("stall rule forced a failure")
	}
	if d := time.Since(t0); d < 2*time.Millisecond {
		t.Fatalf("stall waited only %v", d)
	}
	if in.Fires() != 1 {
		t.Fatalf("stall firing not counted: %d", in.Fires())
	}
}

func TestScheduleRetention(t *testing.T) {
	pl, err := Parse("stack.pop:every=1")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(pl, 1)
	total := scheduleLen + 100
	for i := 0; i < total; i++ {
		in.Inject(StackPop)
	}
	sched := in.Schedule()
	if len(sched) != scheduleLen {
		t.Fatalf("retained %d firings, want %d", len(sched), scheduleLen)
	}
	if sched[0].Attempt != 101 || sched[len(sched)-1].Attempt != uint64(total) {
		t.Fatalf("retention window [%d, %d], want [101, %d]",
			sched[0].Attempt, sched[len(sched)-1].Attempt, total)
	}
}

func TestPointNamesComplete(t *testing.T) {
	seen := map[string]Point{}
	for p := Point(0); p < NumPoints; p++ {
		name := p.String()
		if name == "" || strings.HasPrefix(name, "Point(") {
			t.Fatalf("point %d has no spec name", p)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("points %v and %v share name %q", prev, p, name)
		}
		seen[name] = p
		rt, err := ParsePoint(name)
		if err != nil || rt != p {
			t.Fatalf("ParsePoint(%q) = %v, %v", name, rt, err)
		}
	}
}
