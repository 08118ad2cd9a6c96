package lfrc

import (
	"strings"
	"testing"

	"lfrc/internal/mem"
)

// TestCorruptionPostmortemNamesRef provokes real use-after-free corruption —
// a write to freed (poisoned) memory, detected when the slot is recycled —
// and asserts the flight recorder's postmortem names the damaged ref and
// carries its trailing events.
func TestCorruptionPostmortemNamesRef(t *testing.T) {
	sys, err := New(WithObservability(ObservabilityOptions{SampleEvery: 1}), WithAllocShards(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tid, err := sys.heap.RegisterType(mem.TypeDesc{Name: "victim", NumFields: 2})
	if err != nil {
		t.Fatalf("RegisterType: %v", err)
	}

	victim, err := sys.rc.NewObject(tid)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	sys.rc.Destroy(victim) // rc 1 -> 0: freed and poisoned

	// A stale thread scribbles on the freed payload.
	sys.heap.Store(sys.heap.FieldAddr(victim, 0), 0xDEAD)

	// With one shard the next same-size allocation recycles the slot and the
	// poison check fires.
	again, err := sys.rc.NewObject(tid)
	if err != nil {
		t.Fatalf("NewObject (recycle): %v", err)
	}
	if again != victim {
		t.Fatalf("expected slot recycle: got %#x, want %#x", again, victim)
	}
	if got := sys.Stats().Heap.Corruptions; got != 1 {
		t.Fatalf("Corruptions = %d, want 1", got)
	}

	pms := sys.Postmortems()
	if len(pms) != 1 {
		t.Fatalf("Postmortems() = %d entries, want 1", len(pms))
	}
	p := pms[0]
	if p.Ref != uint32(victim) {
		t.Errorf("postmortem ref = %#x, want %#x", p.Ref, victim)
	}
	if !strings.Contains(p.Reason, "poison") {
		t.Errorf("postmortem reason = %q, want poison corruption", p.Reason)
	}
	if !strings.Contains(p.String(), "ref=") {
		t.Errorf("postmortem string does not name the ref: %s", p.String())
	}
	// The trailing events must include the victim's own lifecycle (its alloc,
	// destroy, or free), not just unrelated traffic.
	var touches int
	for _, e := range p.Events {
		if e.Ref == uint32(victim) {
			touches++
		}
	}
	if touches == 0 {
		t.Errorf("postmortem events never touch ref %#x: %v", victim, p.Events)
	}
}

// TestAuditViolationCapturesPostmortem corrupts a live object's reference
// count and asserts Audit both reports it and leaves a postmortem naming it.
func TestAuditViolationCapturesPostmortem(t *testing.T) {
	sys, err := New(WithObservability(ObservabilityOptions{SampleEvery: 1}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tid, err := sys.heap.RegisterType(mem.TypeDesc{Name: "audited", NumFields: 1})
	if err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	r, err := sys.rc.NewObject(tid)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	// Inflate the count: no pointer justifies rc=5.
	sys.heap.Store(sys.heap.RCAddr(r), 5)

	vs := sys.Audit()
	if len(vs) == 0 {
		t.Fatal("Audit reported no violations for an inflated rc")
	}
	pms := sys.Postmortems()
	if len(pms) != len(vs) {
		t.Fatalf("Postmortems() = %d entries, want %d (one per violation)", len(pms), len(vs))
	}
	if pms[0].Ref != uint32(r) {
		t.Errorf("postmortem ref = %#x, want %#x", pms[0].Ref, r)
	}
	if !strings.Contains(pms[0].Reason, "audit") {
		t.Errorf("postmortem reason = %q, want audit violation", pms[0].Reason)
	}
}
