package census_test

import (
	"testing"

	"lfrc/internal/census"
	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
	"lfrc/internal/snark"
)

// rcWorld is a figure2 heap built through the LFRC operations, so every
// count starts exact.
type rcWorld struct {
	h    *mem.Heap
	rc   *core.RC
	node mem.TypeID
}

func newRCWorld(t *testing.T) *rcWorld {
	t.Helper()
	h := mem.NewHeap()
	return &rcWorld{
		h:    h,
		rc:   core.New(h, dcas.NewLocking(h)),
		node: h.MustRegisterType(mem.TypeDesc{Name: "node", NumFields: 3, PtrFields: []int{0, 1}}),
	}
}

// config roots each of refs once, as a caller's local handle would.
func (w *rcWorld) config(refs ...mem.Ref) census.Config {
	roots := map[uint32]census.Root{}
	for _, r := range refs {
		root := roots[uint32(r)]
		root.Ref = uint32(r)
		root.Count++
		roots[uint32(r)] = root
	}
	return census.Config{Heap: w.h, Read: w.rc.SnapshotRead, Decode: w.rc.DecodeLink, Roots: roots}
}

func (w *rcWorld) newObject(t *testing.T) mem.Ref {
	t.Helper()
	r, err := w.rc.NewObject(w.node)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	return r
}

func TestAuditCleanGraph(t *testing.T) {
	w := newRCWorld(t)
	// root -> {a, b}; b -> a. Locals: root, a, b.
	root, a, b := w.newObject(t), w.newObject(t), w.newObject(t)
	w.rc.Store(w.h.FieldAddr(root, 0), a)
	w.rc.Store(w.h.FieldAddr(root, 1), b)
	w.rc.Store(w.h.FieldAddr(b, 0), a)

	if ms := census.Audit(w.config(root, a, b)); len(ms) != 0 {
		t.Errorf("Audit on clean graph = %+v, want none", ms)
	}
}

func TestAuditDetectsInflatedCount(t *testing.T) {
	w := newRCWorld(t)
	a := w.newObject(t)
	w.h.Store(w.h.RCAddr(a), 5) // corrupt: only the local ref exists

	ms := census.Audit(w.config(a))
	if len(ms) != 1 || ms[0].Ref != uint32(a) || ms[0].Expected != 1 || ms[0].Stored != 5 {
		t.Errorf("Audit = %+v, want one inflation at %d", ms, a)
	}
}

func TestAuditDetectsDeflatedCount(t *testing.T) {
	w := newRCWorld(t)
	root, a := w.newObject(t), w.newObject(t)
	w.rc.Store(w.h.FieldAddr(root, 0), a)
	w.h.Store(w.h.RCAddr(a), 1) // lost the root's field reference

	ms := census.Audit(w.config(root, a))
	if len(ms) != 1 || ms[0].Ref != uint32(a) || ms[0].Expected != 2 || ms[0].Stored != 1 {
		t.Errorf("Audit = %+v, want one deflation at %d", ms, a)
	}
}

func TestAuditCountsSelfPointers(t *testing.T) {
	w := newRCWorld(t)
	a := w.newObject(t)
	w.rc.Store(w.h.FieldAddr(a, 0), a)

	if ms := census.Audit(w.config(a)); len(ms) != 0 {
		t.Errorf("Audit with self-pointer = %+v, want none", ms)
	}
}

// TestAuditReportsPoisonedLiveCount: a live object whose count cell holds
// poison is a count bug, not a walk race, when its header still shows the
// block the walk saw. Both the uncapped audit and a snapshot's mismatch
// count report it.
func TestAuditReportsPoisonedLiveCount(t *testing.T) {
	w := newRCWorld(t)
	a := w.newObject(t)
	w.h.Store(w.h.RCAddr(a), mem.Poison)

	cfg := w.config(a)
	ms := census.Audit(cfg)
	if len(ms) != 1 || ms[0].Ref != uint32(a) || ms[0].Stored != mem.Poison || ms[0].Expected != 1 {
		t.Errorf("Audit = %+v, want the poisoned count at %d", ms, a)
	}
	if s := census.Take(cfg); s.RCMismatchCount != 1 {
		t.Errorf("Take: RCMismatchCount = %d, want 1", s.RCMismatchCount)
	}
}

func TestAuditQuiescentSnark(t *testing.T) {
	w := newRCWorld(t)
	ts := snark.MustRegisterTypes(w.h)
	d, err := snark.New(w.rc, ts)
	if err != nil {
		t.Fatalf("snark.New: %v", err)
	}
	for v := snark.Value(0); v < 200; v++ {
		if err := d.PushRight(v); err != nil {
			t.Fatal(err)
		}
		if v%3 == 0 {
			d.PopLeft()
		}
		if v%7 == 0 {
			d.PopRight()
		}
	}

	// At quiescence the only external reference is the Deque struct's
	// anchor handle.
	cfg := w.config(d.Anchor())
	if ms := census.Audit(cfg); len(ms) != 0 {
		t.Errorf("Audit on quiescent deque found %d violations: %+v", len(ms), ms)
	}
	d.Close()
	if n := census.Take(cfg).LiveObjects; n != 0 {
		t.Errorf("LiveObjects after Close = %d, want 0", n)
	}
}

// TestLiveObjectsCountsLeaks: a census counts every live object, and none
// once they are destroyed.
func TestLiveObjectsCountsLeaks(t *testing.T) {
	w := newRCWorld(t)
	a, b := w.newObject(t), w.newObject(t)

	if n := census.Take(w.config()).LiveObjects; n != 2 {
		t.Fatalf("LiveObjects = %d, want 2", n)
	}
	w.rc.Destroy(a, b)
	if n := census.Take(w.config()).LiveObjects; n != 0 {
		t.Errorf("LiveObjects after destroy = %d, want 0", n)
	}
}

// TestTypesCountByType: the per-type table counts each type's live objects
// and slot footprint, largest first; freed slots are counted once, in
// FreedSlots.
func TestTypesCountByType(t *testing.T) {
	w := newRCWorld(t)
	leaf := w.h.MustRegisterType(mem.TypeDesc{Name: "leaf", NumFields: 1})

	var nodes, leaves []mem.Ref
	for i := 0; i < 5; i++ {
		nodes = append(nodes, w.newObject(t))
	}
	for i := 0; i < 3; i++ {
		l, err := w.rc.NewObject(leaf)
		if err != nil {
			t.Fatalf("NewObject: %v", err)
		}
		leaves = append(leaves, l)
	}
	w.rc.Destroy(nodes[0])
	w.rc.Destroy(leaves[0])

	s := census.Take(w.config())
	got := map[string]census.TypeStat{}
	for _, ty := range s.Types {
		got[ty.Name] = ty
	}
	// A node's three header and three payload words round up to one whole
	// cache line, like a leaf's four.
	const lineBytes = 8 * mem.LineWords
	if ty := got["node"]; ty.Objects != 4 || ty.Bytes != 4*lineBytes {
		t.Errorf("node = %+v, want 4 objects, %d bytes", ty, 4*lineBytes)
	}
	if ty := got["leaf"]; ty.Objects != 2 || ty.Bytes != 2*lineBytes {
		t.Errorf("leaf = %+v, want 2 objects, %d bytes", ty, 2*lineBytes)
	}
	if len(s.Types) != 2 || s.Types[0].Name != "node" {
		t.Errorf("Types = %+v, want node first", s.Types)
	}
	if s.FreedSlots != 2 {
		t.Errorf("FreedSlots = %d, want 2", s.FreedSlots)
	}
}

func TestTakeEmptyHeap(t *testing.T) {
	w := newRCWorld(t)
	if s := census.Take(w.config()); len(s.Types) != 0 || s.LiveObjects != 0 || s.FreedSlots != 0 {
		t.Errorf("census of empty heap = %+v", s)
	}
}

// TestAuditSkipsWalkRaces: a count read that finds poison because the block
// was freed after the walk read its header — and perhaps recycled, too — is
// a walk race, not a mismatch. The reader frees (and recycles) the block
// between the walk's header and count reads.
func TestAuditSkipsWalkRaces(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		t.Run(map[bool]string{false: "freed", true: "recycled"}[recycle], func(t *testing.T) {
			h := mem.NewHeap(mem.WithAllocShards(1))
			tid := h.MustRegisterType(mem.TypeDesc{Name: "t", NumFields: 1})
			r := h.MustAlloc(tid)
			raced := false
			read := func(a mem.Addr) uint64 {
				if a != h.RCAddr(r) || raced {
					return h.Load(a)
				}
				raced = true
				if err := h.Free(r); err != nil {
					t.Fatalf("Free: %v", err)
				}
				v := h.Load(a)
				if recycle && h.MustAlloc(tid) != r {
					t.Fatal("recycle took another slot")
				}
				return v
			}
			roots := map[uint32]census.Root{uint32(r): {Ref: uint32(r), Count: 1}}
			if ms := census.Audit(census.Config{Heap: h, Read: read, Roots: roots}); len(ms) != 0 || !raced {
				t.Errorf("Audit = %+v (raced %v), want none", ms, raced)
			}
		})
	}
}
