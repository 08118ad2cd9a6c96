package gctrace

import (
	"testing"

	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
	"lfrc/internal/snark"
)

type world struct {
	h    *mem.Heap
	rc   *core.RC
	gc   *Collector
	node mem.TypeID
}

func newWorld(t *testing.T) *world {
	t.Helper()
	h := mem.NewHeap()
	return &world{
		h:    h,
		rc:   core.New(h, dcas.NewLocking(h)),
		gc:   New(h),
		node: h.MustRegisterType(mem.TypeDesc{Name: "node", NumFields: 3, PtrFields: []int{0, 1}}),
	}
}

// collect runs one pass through the RC's snapshot reader and link codec, as
// System.Collect does.
func (w *world) collect() Result { return w.gc.Collect(w.rc.SnapshotRead, w.rc.DecodeLink) }

func TestCollectEmptyHeap(t *testing.T) {
	w := newWorld(t)
	res := w.collect()
	if res.Marked != 0 || res.Freed != 0 {
		t.Errorf("Collect on empty heap = %+v, want zeros", res)
	}
}

func TestCollectSparesRootReachable(t *testing.T) {
	w := newWorld(t)
	root, _ := w.rc.NewObject(w.node)
	child, _ := w.rc.NewObject(w.node)
	w.rc.StoreAlloc(w.h.FieldAddr(root, 0), child)
	w.gc.AddRoot(root)

	res := w.collect()
	if res.Freed != 0 {
		t.Errorf("Collect freed %d root-reachable objects", res.Freed)
	}
	if res.Marked != 2 {
		t.Errorf("Marked = %d, want 2", res.Marked)
	}
	if w.h.IsFreed(root) || w.h.IsFreed(child) {
		t.Error("root-reachable object freed")
	}
}

func TestCollectReclaimsSimpleCycle(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	b, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(a, 0), b)
	w.rc.Store(w.h.FieldAddr(b, 0), a)
	w.rc.Destroy(a, b) // now pure garbage cycle; LFRC cannot reclaim it

	if got := w.h.Stats().LiveObjects; got != 2 {
		t.Fatalf("precondition: LiveObjects = %d, want 2 leaked", got)
	}
	res := w.collect()
	if res.Freed != 2 {
		t.Errorf("Freed = %d, want 2", res.Freed)
	}
	if got := w.h.Stats().LiveObjects; got != 0 {
		t.Errorf("LiveObjects = %d after Collect, want 0", got)
	}
}

func TestCollectReclaimsSelfCycle(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(a, 0), a) // self-pointer, like a Snark sentinel
	w.rc.Destroy(a)

	res := w.collect()
	if res.Freed != 1 {
		t.Errorf("Freed = %d, want 1", res.Freed)
	}
}

func TestCollectAdjustsSurvivorCounts(t *testing.T) {
	w := newWorld(t)
	// Garbage cycle {a,b}; b also points at live survivor s.
	s, _ := w.rc.NewObject(w.node)
	a, _ := w.rc.NewObject(w.node)
	b, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(a, 0), b)
	w.rc.Store(w.h.FieldAddr(b, 0), a)
	w.rc.Store(w.h.FieldAddr(b, 1), s)
	w.rc.Destroy(a, b)
	w.gc.AddRoot(s)

	if got := w.rc.RCOf(s); got != 2 {
		t.Fatalf("precondition: rc(s) = %d, want 2 (local + garbage ref)", got)
	}
	res := w.collect()
	if res.Freed != 2 {
		t.Errorf("Freed = %d, want 2", res.Freed)
	}
	if res.RCAdjusted != 1 {
		t.Errorf("RCAdjusted = %d, want 1", res.RCAdjusted)
	}
	if got := w.rc.RCOf(s); got != 1 {
		t.Errorf("rc(s) = %d after Collect, want 1", got)
	}
	// Ordinary LFRC reclamation must work again afterwards.
	w.gc.RemoveRoot(s)
	w.rc.Destroy(s)
	if got := w.h.Stats().LiveObjects; got != 0 {
		t.Errorf("LiveObjects = %d, want 0", got)
	}
}

func TestRootRegistrationCounts(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	w.gc.AddRoot(a)
	w.gc.AddRoot(a)
	w.gc.RemoveRoot(a)

	// Still rooted once: must survive.
	if res := w.collect(); res.Freed != 0 {
		t.Errorf("Freed = %d with live root, want 0", res.Freed)
	}
	w.gc.RemoveRoot(a)
	if res := w.collect(); res.Freed != 1 {
		t.Errorf("Freed = %d after last RemoveRoot, want 1", res.Freed)
	}
}

// TestBackupCollectorOnCyclicSnark is the paper's §7 scenario end to end:
// the original self-pointer Snark strands sentinel cycles that LFRC cannot
// reclaim; an occasional tracing pass collects them while sparing the live
// deque (experiment E8).
func TestBackupCollectorOnCyclicSnark(t *testing.T) {
	w := newWorld(t)
	ts := snark.MustRegisterTypes(w.h)
	d, err := snark.New(w.rc, ts, snark.WithCyclicSentinels())
	if err != nil {
		t.Fatalf("snark.New: %v", err)
	}

	const n = 100
	for v := snark.Value(0); v < n; v++ {
		if err := d.PushRight(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/2; i++ {
		if _, ok := d.PopRight(); !ok {
			t.Fatalf("premature empty at %d", i)
		}
	}

	liveBefore := w.h.Stats().LiveObjects
	// Root the deque through its anchor: everything the live structure
	// needs hangs off it.
	w.gc.AddRoot(d.Anchor())
	res := w.collect()
	if res.Freed == 0 {
		t.Fatal("backup collector reclaimed nothing; expected stranded sentinel cycles")
	}
	t.Logf("backup trace freed %d of %d live objects", res.Freed, liveBefore)

	// The live half of the deque must still drain correctly.
	for i := 0; i < n/2; i++ {
		if _, ok := d.PopLeft(); !ok {
			t.Fatalf("deque lost live element %d after trace", i)
		}
	}
	if _, ok := d.PopLeft(); ok {
		t.Error("deque has extra elements after trace")
	}
}
