package check

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
	node mem.TypeID
}

func newWorld(t *testing.T) *world {
	t.Helper()
	h := mem.NewHeap()
	return &world{
		h:    h,
		rc:   core.New(h, dcas.NewLocking(h)),
		node: h.MustRegisterType(mem.TypeDesc{Name: "node", NumFields: 3, PtrFields: []int{0, 1}}),
	}
}

func TestAuditCleanGraph(t *testing.T) {
	w := newWorld(t)
	// root -> {a, b}; b -> a. Locals: root, a, b.
	root, _ := w.rc.NewObject(w.node)
	a, _ := w.rc.NewObject(w.node)
	b, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(root, 0), a)
	w.rc.Store(w.h.FieldAddr(root, 1), b)
	w.rc.Store(w.h.FieldAddr(b, 0), a)

	extra := map[mem.Ref]int64{root: 1, a: 1, b: 1}
	if vs := AuditRC(w.h, extra); len(vs) != 0 {
		t.Errorf("AuditRC on clean graph = %v, want none", vs)
	}
}

func TestAuditDetectsInflatedCount(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	w.h.Store(w.h.RCAddr(a), 5) // corrupt: only the local ref exists

	vs := AuditRC(w.h, map[mem.Ref]int64{a: 1})
	if len(vs) != 1 {
		t.Fatalf("AuditRC = %v, want 1 violation", vs)
	}
	if vs[0].Ref != a || vs[0].Kind != "rc" || vs[0].Want != 1 || vs[0].Got != 5 {
		t.Errorf("violation = %+v", vs[0])
	}
}

func TestAuditDetectsDeflatedCount(t *testing.T) {
	w := newWorld(t)
	root, _ := w.rc.NewObject(w.node)
	a, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(root, 0), a)
	w.h.Store(w.h.RCAddr(a), 1) // lost the root's field reference

	vs := AuditRC(w.h, map[mem.Ref]int64{root: 1, a: 1})
	if len(vs) != 1 || vs[0].Ref != a || vs[0].Want != 2 || vs[0].Got != 1 {
		t.Errorf("AuditRC = %v, want one deflation at %d", vs, a)
	}
}

func TestAuditCountsSelfPointers(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	w.rc.Store(w.h.FieldAddr(a, 0), a)

	if vs := AuditRC(w.h, map[mem.Ref]int64{a: 1}); len(vs) != 0 {
		t.Errorf("AuditRC with self-pointer = %v, want none", vs)
	}
}

func TestAuditQuiescentSnark(t *testing.T) {
	w := newWorld(t)
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
	vs := AuditRC(w.h, map[mem.Ref]int64{d.Anchor(): 1})
	if len(vs) != 0 {
		t.Errorf("AuditRC on quiescent deque found %d violations: %v", len(vs), vs)
	}
	d.Close()
	if leaks := Leaks(w.h); len(leaks) != 0 {
		t.Errorf("Leaks after Close = %v, want none", leaks)
	}
}

func TestLeaksListsLiveObjects(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	b, _ := w.rc.NewObject(w.node)

	leaks := Leaks(w.h)
	if len(leaks) != 2 {
		t.Fatalf("Leaks = %v, want 2 entries", leaks)
	}
	w.rc.Destroy(a, b)
	if leaks := Leaks(w.h); len(leaks) != 0 {
		t.Errorf("Leaks after destroy = %v, want none", leaks)
	}
}

func TestScanPoisonCleanHeap(t *testing.T) {
	w := newWorld(t)
	a, _ := w.rc.NewObject(w.node)
	w.rc.Destroy(a)
	if vs := ScanPoison(w.h); len(vs) != 0 {
		t.Errorf("ScanPoison = %v, want none", vs)
	}
}

func TestScanPoisonDetectsDamage(t *testing.T) {
	tests := []struct {
		name   string
		damage func(w *world, a mem.Ref)
		offset int64
	}{
		{
			name:   "rc cell",
			damage: func(w *world, a mem.Ref) { w.h.Store(w.h.RCAddr(a), mem.Poison+1) },
			offset: 1,
		},
		{
			name:   "payload cell",
			damage: func(w *world, a mem.Ref) { w.h.Store(w.h.FieldAddr(a, 1), 0) },
			offset: int64(mem.HeaderWords + 1),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := newWorld(t)
			a, _ := w.rc.NewObject(w.node)
			w.rc.Destroy(a)
			tt.damage(w, a)

			vs := ScanPoison(w.h)
			if len(vs) != 1 {
				t.Fatalf("ScanPoison = %v, want 1 violation", vs)
			}
			if vs[0].Ref != a || vs[0].Kind != "poison" || vs[0].Got != tt.offset {
				t.Errorf("violation = %+v, want offset %d at %d", vs[0], tt.offset, a)
			}
		})
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Ref: 0x40, Kind: "rc", Want: 2, Got: 3}
	want := "rc violation at 0x40: want 2, got 3"
	if got := v.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestCensusCountsByType(t *testing.T) {
	w := newWorld(t)
	leaf := w.h.MustRegisterType(mem.TypeDesc{Name: "leaf", NumFields: 1})

	var nodes, leaves []mem.Ref
	for i := 0; i < 5; i++ {
		n, _ := w.rc.NewObject(w.node)
		nodes = append(nodes, n)
	}
	for i := 0; i < 3; i++ {
		l, _ := w.rc.NewObject(leaf)
		leaves = append(leaves, l)
	}
	w.rc.Destroy(nodes[0])
	w.rc.Destroy(leaves[0])

	census := Census(w.h)
	got := map[string]TypeCensus{}
	for _, c := range census {
		got[c.Name] = c
	}
	if c := got["node"]; c.Live != 4 || c.Freed != 1 {
		t.Errorf("node census = %+v, want live 4 freed 1", c)
	}
	if c := got["leaf"]; c.Live != 2 || c.Freed != 1 {
		t.Errorf("leaf census = %+v, want live 2 freed 1", c)
	}
	// Sorted by live words descending: node objects are more.
	if len(census) > 0 && census[0].Name != "node" {
		t.Errorf("census[0] = %+v, want node first", census[0])
	}
	// LiveWords counts slot footprint: a node's three header and three
	// payload words round up to one whole cache line.
	if c := got["node"]; c.LiveWords != 4*mem.LineWords {
		t.Errorf("node LiveWords = %d", c.LiveWords)
	}
}

func TestCensusEmptyHeap(t *testing.T) {
	w := newWorld(t)
	if census := Census(w.h); len(census) != 0 {
		t.Errorf("Census of empty heap = %v", census)
	}
}
