package census_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lfrc/internal/census"
	"lfrc/internal/mem"
)

// fixture is a hand-built heap with every census verdict represented:
//
//	root ──▶ child                    (reachable)
//	a ⇄ b, a ──▶ pinned               (unreachable 2-cycle retaining a third)
//	husk(rc=0) ──▶ kept               (limbo: a retired husk and what it pins)
//	stray(rc=7) ──▶ freed slot        (rc mismatch + dangling edge)
//
// plus one freed slot. The "pair" type has two pointer fields and one scalar
// (6 words with the header = 48 bytes per object).
type fixture struct {
	h                                     *mem.Heap
	tid                                   mem.TypeID
	root, child, a, b, pinned, husk, kept mem.Ref
	stray                                 mem.Ref
}

func build(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{h: mem.NewHeap()}
	tid, err := f.h.RegisterType(mem.TypeDesc{Name: "pair", NumFields: 3, PtrFields: []int{0, 1}})
	if err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	f.tid = tid
	alloc := func() mem.Ref {
		r, err := f.h.Alloc(tid)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		return r
	}
	link := func(from mem.Ref, field int, to mem.Ref) {
		f.h.Store(f.h.FieldAddr(from, field), uint64(to))
	}
	f.root, f.child = alloc(), alloc()
	link(f.root, 0, f.child)

	f.a, f.b, f.pinned = alloc(), alloc(), alloc()
	link(f.a, 0, f.b)
	link(f.b, 0, f.a)
	link(f.a, 1, f.pinned)

	f.husk, f.kept = alloc(), alloc()
	f.h.Store(f.h.RCAddr(f.husk), 0)
	link(f.husk, 0, f.kept)

	f.stray = alloc()
	f.h.Store(f.h.RCAddr(f.stray), 7)

	freed := alloc()
	link(f.stray, 0, freed)
	if err := f.h.Free(freed); err != nil {
		t.Fatalf("Free: %v", err)
	}
	return f
}

func (f *fixture) take(opts ...func(*census.Config)) *census.Snapshot {
	cfg := census.Config{
		Heap: f.h,
		Read: f.h.Load,
		Roots: map[uint32]census.Root{
			uint32(f.root): {Ref: uint32(f.root), Name: "deque", Count: 1},
		},
		Backend: "test",
	}
	for _, o := range opts {
		o(&cfg)
	}
	return census.Take(cfg)
}

// pairBytes is the census footprint of one pair: its slot, three header and
// three payload words rounded up to one 64-byte cache line, not the 48 bytes
// of the record itself.
const pairBytes = 8 * mem.LineWords

func TestTakeClassifiesEveryVerdict(t *testing.T) {
	f := build(t)
	s := f.take()

	if s.SchemaVersion != census.SchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", s.SchemaVersion, census.SchemaVersion)
	}
	if s.Backend != "test" {
		t.Errorf("Backend = %q", s.Backend)
	}
	if s.LiveObjects != 8 || s.FreedSlots != 1 {
		t.Errorf("live=%d freed=%d, want 8/1", s.LiveObjects, s.FreedSlots)
	}
	if s.LiveBytes != 8*pairBytes {
		t.Errorf("LiveBytes = %d, want %d", s.LiveBytes, 8*pairBytes)
	}
	// root→child, a→b, b→a, a→pinned, husk→kept; stray→freed dangles.
	if s.Edges != 5 || s.DanglingEdges != 1 {
		t.Errorf("edges=%d dangling=%d, want 5/1", s.Edges, s.DanglingEdges)
	}
	if s.Reachable.Objects != 2 || s.Limbo.Objects != 2 || s.Unreachable.Objects != 4 {
		t.Errorf("reachable=%d limbo=%d unreachable=%d, want 2/2/4",
			s.Reachable.Objects, s.Limbo.Objects, s.Unreachable.Objects)
	}
	if s.Reachable.Bytes != 2*pairBytes || s.Limbo.Bytes != 2*pairBytes || s.Unreachable.Bytes != 4*pairBytes {
		t.Errorf("bucket bytes wrong: %+v %+v %+v", s.Reachable, s.Limbo, s.Unreachable)
	}
	if got := s.Reachable.Objects + s.Limbo.Objects + s.Unreachable.Objects; got != s.LiveObjects {
		t.Errorf("buckets do not partition the heap: %d != %d", got, s.LiveObjects)
	}

	if len(s.Roots) != 1 || s.Roots[0].Ref != uint32(f.root) || s.Roots[0].Name != "deque" {
		t.Errorf("roots = %+v", s.Roots)
	}

	// Exactly one cycle: {a, b}, retaining pinned as well.
	if s.CycleCount != 1 || len(s.Cycles) != 1 {
		t.Fatalf("cycles = %d (%d listed), want 1", s.CycleCount, len(s.Cycles))
	}
	cy := s.Cycles[0]
	if cy.Size != 2 || cy.Bytes != 2*pairBytes {
		t.Errorf("cycle size=%d bytes=%d, want 2/%d", cy.Size, cy.Bytes, 2*pairBytes)
	}
	if cy.RetainedObjects != 3 || cy.RetainedBytes != 3*pairBytes {
		t.Errorf("cycle retained=%d objs %d B, want 3/%d", cy.RetainedObjects, cy.RetainedBytes, 3*pairBytes)
	}
	if cy.Key == "" || cy.Truncated {
		t.Errorf("cycle key=%q truncated=%v", cy.Key, cy.Truncated)
	}
	members := map[uint32]bool{}
	for _, o := range cy.Objects {
		members[o.Ref] = true
		if o.Type != "pair" || o.RC != 1 {
			t.Errorf("cycle member %+v, want pair rc=1", o)
		}
	}
	if !members[uint32(f.a)] || !members[uint32(f.b)] {
		t.Errorf("cycle members %v missing a=%d b=%d", cy.Objects, f.a, f.b)
	}
	if s.CycleObjects != 2 || s.CycleBytes != 2*pairBytes {
		t.Errorf("cycle aggregates objects=%d bytes=%d, want 2/%d", s.CycleObjects, s.CycleBytes, 2*pairBytes)
	}

	// Exactly one mismatch: stray stores 7 against zero in-edges.
	if s.RCMismatchCount != 1 || len(s.RCMismatches) != 1 {
		t.Fatalf("mismatches = %d (%v)", s.RCMismatchCount, s.RCMismatches)
	}
	m := s.RCMismatches[0]
	if m.Ref != uint32(f.stray) || m.Stored != 7 || m.Expected != 0 || m.Class != "unreachable" {
		t.Errorf("mismatch = %+v", m)
	}

	// One type carrying everything.
	if len(s.Types) != 1 {
		t.Fatalf("types = %+v", s.Types)
	}
	ty := s.Types[0]
	if ty.Name != "pair" || ty.Objects != 8 || ty.Bytes != 8*pairBytes {
		t.Errorf("type stat = %+v", ty)
	}
	if ty.ReachableObjects != 2 || ty.UnreachableObjects != 4 || ty.LimboObjects != 2 {
		t.Errorf("type classes = %+v", ty)
	}
	if s.WallNS <= 0 || s.TS <= 0 {
		t.Errorf("wall=%d ts=%d", s.WallNS, s.TS)
	}
}

// TestSelfLoopIsACycle locks the size-1 special case: an SCC of one node only
// counts as a cycle when it actually references itself.
func TestSelfLoopIsACycle(t *testing.T) {
	h := mem.NewHeap()
	tid := h.MustRegisterType(mem.TypeDesc{Name: "self", NumFields: 1, PtrFields: []int{0}})
	r, err := h.Alloc(tid)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	h.Store(h.FieldAddr(r, 0), uint64(r))
	lone, err := h.Alloc(tid) // unreachable, counted, but no self edge
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	_ = lone

	s := census.Take(census.Config{Heap: h, Read: h.Load, Backend: "test"})
	if s.CycleCount != 1 || s.Cycles[0].Size != 1 {
		t.Fatalf("self-loop not reported as a 1-cycle: %+v", s.Cycles)
	}
	if s.Cycles[0].Objects[0].Ref != uint32(r) {
		t.Errorf("cycle member = %+v, want %d", s.Cycles[0].Objects, r)
	}
	if s.Unreachable.Objects != 2 {
		t.Errorf("unreachable = %d, want 2 (the loop and the lone stray)", s.Unreachable.Objects)
	}
}

// TestListCapsKeepAggregatesExact: caps trim the lists, never the counts.
func TestListCapsKeepAggregatesExact(t *testing.T) {
	h := mem.NewHeap()
	tid := h.MustRegisterType(mem.TypeDesc{Name: "pair", NumFields: 2, PtrFields: []int{0, 1}})
	for i := 0; i < 3; i++ {
		a, _ := h.Alloc(tid)
		b, _ := h.Alloc(tid)
		h.Store(h.FieldAddr(a, 0), uint64(b))
		h.Store(h.FieldAddr(b, 0), uint64(a))
	}
	s := census.Take(census.Config{
		Heap: h, Read: h.Load, Backend: "test",
		MaxCycles: 2, MaxCycleObjects: 1,
	})
	if s.CycleCount != 3 || s.CycleObjects != 6 {
		t.Fatalf("aggregates = %d cycles / %d objects, want 3/6", s.CycleCount, s.CycleObjects)
	}
	if len(s.Cycles) != 2 {
		t.Fatalf("listed cycles = %d, want cap 2", len(s.Cycles))
	}
	for _, cy := range s.Cycles {
		if len(cy.Objects) != 1 || !cy.Truncated {
			t.Errorf("cycle list not truncated to 1: %+v", cy)
		}
		if cy.Size != 2 {
			t.Errorf("truncation changed Size: %+v", cy)
		}
	}
}

func TestDiffSpotsNewCycles(t *testing.T) {
	f := build(t)
	before := f.take()

	// Grow a second, disjoint cycle.
	c, _ := f.h.Alloc(f.tid)
	d, _ := f.h.Alloc(f.tid)
	f.h.Store(f.h.FieldAddr(c, 0), uint64(d))
	f.h.Store(f.h.FieldAddr(d, 0), uint64(c))
	after := f.take()

	delta := census.Diff(before, after)
	if delta.NewCycles != 1 || delta.NewCycleBytes != 2*pairBytes {
		t.Errorf("new cycles = %d (%d B), want 1 (%d B)", delta.NewCycles, delta.NewCycleBytes, 2*pairBytes)
	}
	if delta.LiveObjects != 2 || delta.UnreachableObjects != 2 {
		t.Errorf("delta live=%+d unreachable=%+d, want +2/+2", delta.LiveObjects, delta.UnreachableObjects)
	}
	if len(delta.Types) != 1 || delta.Types[0].Objects != 2 {
		t.Errorf("type deltas = %+v", delta.Types)
	}

	// A snapshot diffed against itself is all zeroes: persisting cycles are
	// not "new".
	same := census.Diff(after, after)
	if same.NewCycles != 0 || same.LiveObjects != 0 || len(same.Types) != 0 {
		t.Errorf("self-diff not empty: %+v", same)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	f := build(t)
	var buf bytes.Buffer
	if err := f.take().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var got census.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("census.json invalid: %v", err)
	}
	if got.SchemaVersion != census.SchemaVersion || got.CycleCount != 1 || got.RCMismatchCount != 1 {
		t.Errorf("round trip lost data: %+v", got)
	}
}

// TestJSONSchemaGolden locks the census.json key surface the same way
// stats_keys.golden locks Stats: /debug/lfrc/census.json is an exported
// interface, so a key rename must surface as a golden-file diff in review.
// The fixture covers every list (roots, cycles with members, mismatches,
// types), so the full key set is exercised.
//
// Regenerate with: UPDATE_GOLDEN=1 go test -run TestJSONSchemaGolden .
func TestJSONSchemaGolden(t *testing.T) {
	f := build(t)
	var buf bytes.Buffer
	if err := f.take().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var tree any
	if err := json.Unmarshal(buf.Bytes(), &tree); err != nil {
		t.Fatalf("census.json invalid: %v", err)
	}
	keys := keyPaths("", tree)
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "census_schema.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("census.json key set changed.\n--- got ---\n%s--- want (%s) ---\n%s"+
			"If the change is intentional, bump SchemaVersion, regenerate with "+
			"UPDATE_GOLDEN=1, and call it out in review.", got, golden, want)
	}
}

// keyPaths flattens a decoded JSON tree into dotted key paths, collapsing
// array elements into one "[]" segment (mirrors the root package's golden
// helper).
func keyPaths(prefix string, v any) []string {
	switch x := v.(type) {
	case map[string]any:
		var out []string
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out = append(out, p)
			out = append(out, keyPaths(p, child)...)
		}
		return out
	case []any:
		seen := map[string]bool{}
		var out []string
		for _, child := range x {
			for _, p := range keyPaths(prefix+"[]", child) {
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
		return out
	default:
		return nil
	}
}

func TestWriteProfileIsValidGzipWithLeakClass(t *testing.T) {
	f := build(t)
	var buf bytes.Buffer
	if err := f.take().WriteProfile(&buf); err != nil {
		t.Fatalf("WriteProfile: %v", err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	// The string table is stored verbatim in the protobuf, so the class
	// frames and type names must appear as raw bytes.
	for _, want := range []string{"pair", "reachable", "unreachable", "limbo", "cycle leak", "objects", "bytes"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("profile lacks string %q", want)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	f := build(t)
	s := f.take()

	var buf bytes.Buffer
	if err := s.WriteDOT(&buf, 0); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	dot := buf.String()
	if !strings.HasPrefix(dot, "digraph census") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Errorf("not a DOT document:\n%s", dot)
	}
	for _, want := range []string{"lightgray", "lightcoral", "khaki", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT lacks %q:\n%s", want, dot)
		}
	}

	// An 8-node heap over a 4-node cap is a hairball, not a render.
	if err := s.WriteDOT(io.Discard, 4); !errors.Is(err, census.ErrTooLarge) {
		t.Errorf("WriteDOT over cap = %v, want ErrTooLarge", err)
	}

	// A snapshot decoded from JSON has no graph to render.
	var jsonBuf bytes.Buffer
	if err := s.WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded census.Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := decoded.WriteDOT(io.Discard, 0); !errors.Is(err, census.ErrNoGraph) {
		t.Errorf("decoded WriteDOT = %v, want ErrNoGraph", err)
	}
}

// TestTakeIsReadOnly: a census mutates nothing — a second census over an
// untouched heap reports identical structure.
func TestTakeIsReadOnly(t *testing.T) {
	f := build(t)
	s1 := f.take()
	s2 := f.take()
	if s1.LiveObjects != s2.LiveObjects || s1.Edges != s2.Edges ||
		s1.CycleCount != s2.CycleCount || s1.RCMismatchCount != s2.RCMismatchCount ||
		s1.Unreachable != s2.Unreachable || s1.Limbo != s2.Limbo {
		t.Errorf("censuses of an untouched heap differ:\n%+v\n%+v", s1, s2)
	}
	if f.h.Load(f.h.RCAddr(f.stray)) != 7 {
		t.Errorf("census changed a stored count")
	}
}
