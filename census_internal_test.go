package lfrc

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lfrc/internal/mem"
	"lfrc/internal/reclaim"
)

// buildCycle plants the paper's unfixable garbage: a doubly-linked A⇄B pair
// whose counts each settle at the credit of one link (held only by the other
// member) with no Go-side reference remaining. LFRC can never free it —
// exactly what the census exists to report. The comments give figure2's
// counts; under split each link adds its weight instead of 1.
func buildCycle(t *testing.T, sys *System) (a, b mem.Ref) {
	t.Helper()
	tid, err := sys.heap.RegisterType(mem.TypeDesc{Name: "cyclepair", NumFields: 2, PtrFields: []int{0, 1}})
	if err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	a, err = sys.rc.NewObject(tid) // rc=1 (our handle)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	b, err = sys.rc.NewObject(tid) // rc=1 (our handle)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	sys.rc.Store(sys.heap.FieldAddr(a, 0), b) // b rc=2
	sys.rc.Store(sys.heap.FieldAddr(b, 0), a) // a rc=2
	sys.rc.Destroy(a, b)                      // drop our handles: rc=1 each, unreachable
	return a, b
}

// TestCensusCycleLeak is the acceptance scenario: a deliberately constructed
// doubly-linked cycle, unreachable after the structures close, is reported by
// the census — with its member list, retained bytes, and a non-zero
// lfrc_census_cycle_bytes gauge. A set closed under an incremental-destroy
// budget of 1 leaves its chain behind a zombie parked on the zombie stack,
// and the pre-drain census must classify that zombie and what it pins as
// limbo, never as leaks. The subtest is named after the backend, with one
// subtest per RC strategy below it: each cycle member's count is the credit
// of its one in-link, 1 under figure2 and the link's weight under split.
func TestCensusCycleLeak(t *testing.T) {
	t.Run(reclaim.Name, func(t *testing.T) {
		for _, tc := range []struct {
			rc     RCStrategy
			credit uint64
		}{
			{RCFigure2, 1},
			{RCSplit, 1 << 16}, // core's default split link weight
		} {
			t.Run(tc.rc.String(), func(t *testing.T) { testCensusCycleLeak(t, tc.rc, tc.credit) })
		}
	})
}

func testCensusCycleLeak(t *testing.T, rc RCStrategy, credit uint64) {
	sys, err := New(WithIncrementalDestroy(1), WithRCStrategy(rc))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	q, err := sys.NewQueue()
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	for i := Value(0); i < 64; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	for i := 0; i < 32; i++ {
		if _, ok := q.Dequeue(); !ok {
			t.Fatal("Dequeue: empty")
		}
	}
	set, err := sys.NewSet()
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	for k := Value(32); k > 0; k-- {
		if _, err := set.Insert(k); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	set.Close() // budget 1: frees one node, parks the next, which pins the rest
	a, b := buildCycle(t, sys)

	pre := sys.Census()
	if pre.Unreachable.Objects != 2 {
		t.Errorf("pre-drain unreachable = %d, want 2 (only the cycle): %+v",
			pre.Unreachable.Objects, pre.Unreachable)
	}
	if pre.Limbo.Objects == 0 {
		t.Errorf("pre-drain census shows no limbo despite a closed set parked undrained")
	}

	q.Close()
	sys.DrainZombies(0)
	c := sys.Census()

	if c.Limbo.Objects != 0 {
		t.Errorf("post-drain limbo = %d, want 0", c.Limbo.Objects)
	}
	if c.CycleCount != 1 || len(c.Cycles) != 1 {
		t.Fatalf("cycle count = %d (%d listed), want 1", c.CycleCount, len(c.Cycles))
	}
	cy := c.Cycles[0]
	if cy.Size != 2 || cy.Bytes <= 0 || cy.RetainedBytes < cy.Bytes {
		t.Errorf("cycle = %+v, want size 2 with positive (retained) bytes", cy)
	}
	members := map[uint32]uint64{}
	for _, o := range cy.Objects {
		members[o.Ref] = o.RC
		if o.Type != "cyclepair" {
			t.Errorf("member type = %q, want cyclepair", o.Type)
		}
	}
	if members[uint32(a)] != credit || members[uint32(b)] != credit {
		t.Errorf("members = %v, want a=%d and b=%d at rc=%d", cy.Objects, a, b, credit)
	}
	if c.CycleBytes <= 0 || c.Unreachable.Objects != 2 {
		t.Errorf("cycle_bytes=%d unreachable=%d, want >0 and 2", c.CycleBytes, c.Unreachable.Objects)
	}
	// The cycle's counts are consistent (one in-link each), so it must
	// NOT be flagged as an rc mismatch — it is a leak, not a count bug.
	if c.RCMismatchCount != 0 {
		t.Errorf("rc mismatches = %d (%v), want 0", c.RCMismatchCount, c.RCMismatches)
	}

	var buf bytes.Buffer
	sys.WriteMetrics(&buf)
	v, ok := metricValue(buf.String(), "lfrc_census_cycle_bytes")
	if !ok || v <= 0 {
		t.Errorf("lfrc_census_cycle_bytes = %v (found=%v), want > 0", v, ok)
	}
}

// metricValue scans Prometheus text exposition for an unlabelled series.
func metricValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// TestCensusExtraRoots: a counted reference held only in a Go-side variable
// would be misreported as a leak; WithCensusRoots declares it, which both
// reclassifies its subgraph as reachable and fixes the expected in-edge count.
func TestCensusExtraRoots(t *testing.T) {
	var held uint32
	sys, err := New(WithCensusRoots(func() []uint32 { return []uint32{held} }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	tid, err := sys.heap.RegisterType(mem.TypeDesc{Name: "held", NumFields: 1})
	if err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	r, err := sys.rc.NewObject(tid)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	held = uint32(r)

	c := sys.Census()
	if c.Reachable.Objects != 1 || c.Unreachable.Objects != 0 {
		t.Errorf("reachable=%d unreachable=%d, want 1/0", c.Reachable.Objects, c.Unreachable.Objects)
	}
	if c.RCMismatchCount != 0 {
		t.Errorf("declared root still flagged as mismatch: %v", c.RCMismatches)
	}
	found := false
	for _, root := range c.Roots {
		if root.Ref == held && root.Name == "extra" && root.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("extra root not listed: %+v", c.Roots)
	}

	// Undeclared, the same object is a leak candidate: unreachable with a
	// stuck count.
	held = 0
	c = sys.Census()
	if c.Unreachable.Objects != 1 || c.RCMismatchCount != 1 {
		t.Errorf("undeclared handle not reported: unreachable=%d mismatches=%d, want 1/1",
			c.Unreachable.Objects, c.RCMismatchCount)
	}
}

// TestCensusWhileMutating locks the read-only guarantee under -race: censuses
// taken while mutator goroutines hammer the structures must be race-clean,
// and a census must never free or retain anything itself.
func TestCensusWhileMutating(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	q, err := sys.NewQueue()
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	st, err := sys.NewStack()
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*0x9E3779B97F4A7C15 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				v := Value(rng >> 16 & 0xFFFF)
				switch rng % 4 {
				case 0:
					q.Enqueue(v)
				case 1:
					q.Dequeue()
				case 2:
					st.Push(v)
				case 3:
					st.Pop()
				}
			}
		}(uint64(w + 1))
	}
	for i := 0; i < 20; i++ {
		c := sys.Census()
		// Moving-target snapshots are approximate but must stay internally
		// partitioned.
		if got := c.Reachable.Objects + c.Unreachable.Objects + c.Limbo.Objects; got != c.LiveObjects {
			t.Errorf("buckets do not partition a concurrent census: %d != %d", got, c.LiveObjects)
		}
	}
	close(stop)
	wg.Wait()

	// Quiescent: the census itself must not move the heap.
	before := sys.Stats().Heap
	c := sys.Census()
	after := sys.Stats().Heap
	if before.LiveObjects != after.LiveObjects || before.Frees != after.Frees || before.Allocs != after.Allocs {
		t.Errorf("census moved the heap: before=%+v after=%+v", before, after)
	}
	if c.LiveObjects != before.LiveObjects {
		t.Errorf("census live=%d, heap live=%d", c.LiveObjects, before.LiveObjects)
	}
}

// TestWriteCensusProfileCapture regenerates the census.pb.gz capture quoted
// in README.md ("Heap census"): a queue plus one planted cycle, closed and
// drained, so `go tool pprof -top` shows the cycle-leak class on top. Skipped
// unless CENSUS_CAPTURE names an output path:
//
//	CENSUS_CAPTURE=/tmp/census.pb.gz go test -run TestWriteCensusProfileCapture .
//	go tool pprof -top /tmp/census.pb.gz
func TestWriteCensusProfileCapture(t *testing.T) {
	out := os.Getenv("CENSUS_CAPTURE")
	if out == "" {
		t.Skip("set CENSUS_CAPTURE=<path> to write the README capture")
	}
	sys, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	q, err := sys.NewQueue()
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	for i := Value(0); i < 64; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	buildCycle(t, sys)
	f, err := os.Create(out)
	if err != nil {
		t.Fatalf("create %s: %v", out, err)
	}
	defer f.Close()
	if err := sys.WriteCensusProfile(f); err != nil {
		t.Fatalf("WriteCensusProfile: %v", err)
	}
}

// TestAuditReportsPoisonedLiveCount plants poison in a live object's count
// cell on a quiescent heap: Audit and the census's mismatch count both
// report it, because the block's header still shows it live.
func TestAuditReportsPoisonedLiveCount(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tid, err := sys.heap.RegisterType(mem.TypeDesc{Name: "poisoned", NumFields: 1})
	if err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	r, err := sys.rc.NewObject(tid)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	sys.collector.AddRoot(r) // the local handle, declared: the count is exact
	if vs := sys.Audit(); len(vs) != 0 {
		t.Fatalf("precondition: Audit = %q, want none", vs)
	}
	sys.heap.Store(sys.heap.RCAddr(r), mem.Poison)

	want := fmt.Sprintf("rc violation at %#x: want 1, got %d", r, int64(mem.Poison))
	if vs := sys.Audit(); len(vs) != 1 || vs[0] != want {
		t.Errorf("Audit = %q, want [%q]", vs, want)
	}
	if n := sys.Census().RCMismatchCount; n != 1 {
		t.Errorf("Census().RCMismatchCount = %d, want 1", n)
	}
}
