package lfrc

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"lfrc/internal/mem"
)

// diagSystem builds a system with full object tracking (every allocation
// ledgered) and the flight recorder at full sampling, the configuration the
// diagnosis tests want for determinism.
func diagSystem(t *testing.T) (*System, mem.TypeID) {
	t.Helper()
	sys, err := New(WithObservability(ObservabilityOptions{SampleEvery: 1, LifecycleEvery: 1}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(sys.Close)
	tid, err := sys.heap.RegisterType(mem.TypeDesc{Name: "diag", NumFields: 2})
	if err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	return sys, tid
}

// TestAuditorDetectsInjectedLeak injects the paper's no-leak failure mode: a
// client that obtains references and never issues the matching LFRCDestroy.
// The object's count sits above zero forever; the auditor must name it, with
// its ledger timeline, once the track has been idle for enough audit epochs.
func TestAuditorDetectsInjectedLeak(t *testing.T) {
	sys, tid := diagSystem(t)

	victim, err := sys.rc.NewObject(tid)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	// A second counted reference, whose Destroy we "forget" along with the
	// constructor's: rc sticks at 2.
	var dup mem.Ref
	sys.rc.Copy(&dup, victim)

	var leak Violation
	for i := 0; i < 8 && leak.Kind == ""; i++ {
		for _, v := range sys.AuditPass() {
			if v.Kind == "leak_candidate" && v.Ref == uint32(victim) {
				leak = v
			}
		}
	}
	if leak.Kind == "" {
		t.Fatalf("auditor never flagged the leaked object; violations: %v", sys.Violations())
	}
	if !strings.Contains(leak.Detail, "rc stuck at 2") {
		t.Errorf("detail does not name the stuck count: %q", leak.Detail)
	}
	if len(leak.Timeline.Entries) < 2 {
		t.Errorf("violation timeline too thin: %s", leak.Timeline)
	}
	// The timeline's chain must show the alloc and the copy that built the
	// leaked count.
	rendered := leak.String()
	for _, want := range []string{"alloc", "copy", "1->2"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered violation lacks %q:\n%s", want, rendered)
		}
	}

	// And it surfaced through the existing postmortem pipeline.
	found := false
	for _, pm := range sys.Postmortems() {
		if pm.Ref == uint32(victim) && strings.Contains(pm.Reason, "leak_candidate") {
			found = true
		}
	}
	if !found {
		t.Errorf("no postmortem captured for the leak candidate")
	}

	// The count really is stuck: the object is still live.
	if sys.heap.IsFreed(victim) {
		t.Fatalf("victim was freed; the injected leak did not hold")
	}
}

// TestAuditorDetectsDoubleFreeAndUseAfterFree drives the other guarantee's
// failure modes through the public surface: a deliberate second free of a
// reclaimed slot, and an rc touch through a stale reference after the free.
func TestAuditorDetectsDoubleFreeAndUseAfterFree(t *testing.T) {
	sys, tid := diagSystem(t)

	victim, err := sys.rc.NewObject(tid)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	sys.rc.Destroy(victim) // rc 1 -> 0: freed
	if !sys.heap.IsFreed(victim) {
		t.Fatalf("victim not freed after Destroy")
	}
	if err := sys.heap.Free(victim); err == nil {
		t.Fatalf("second Free unexpectedly succeeded")
	}
	// A stale reference still "held" by a buggy client: the copy bumps a
	// poisoned rc cell and lands on the timeline after the free event.
	var stale mem.Ref
	sys.rc.Copy(&stale, victim)

	kinds := map[string]Violation{}
	for _, v := range sys.AuditPass() {
		kinds[v.Kind] = v
	}
	df, ok := kinds["double_free"]
	if !ok {
		t.Fatalf("double free not flagged; got %v", sys.Violations())
	}
	if df.Ref != uint32(victim) || !strings.Contains(df.Detail, "already freed") {
		t.Errorf("double-free violation wrong: %+v", df)
	}
	uaf, ok := kinds["use_after_free"]
	if !ok {
		t.Fatalf("use after free not flagged; got %v", sys.Violations())
	}
	if uaf.Ref != uint32(victim) || !strings.Contains(uaf.Detail, "after its free") {
		t.Errorf("use-after-free violation wrong: %+v", uaf)
	}
	// The timeline tells the whole story: birth, destroy-to-zero, free,
	// rejected free, and the stale copy.
	tl, ok := sys.ObjectTimeline(uint32(victim))
	if !ok {
		t.Fatalf("no timeline for the victim")
	}
	s := tl.String()
	for _, want := range []string{"alloc", "destroy", "free", "copy"} {
		if !strings.Contains(s, want) {
			t.Errorf("timeline lacks %q:\n%s", want, s)
		}
	}
}

// TestLedgerThroughPublicAPI reads the ledger back through Stats and
// ObjectTimeline: every object is sampled, and each timeline records
// whether its incarnation was freed.
func TestLedgerThroughPublicAPI(t *testing.T) {
	sys, tid := diagSystem(t)
	refs := make([]mem.Ref, 0, 4)
	for i := 0; i < 4; i++ {
		r, err := sys.rc.NewObject(tid)
		if err != nil {
			t.Fatalf("NewObject: %v", err)
		}
		refs = append(refs, r)
	}
	sys.rc.Destroy(refs[0])

	st := sys.Stats()
	if !st.Lifecycle.Enabled || st.Lifecycle.SampledObjects != 4 {
		t.Errorf("stats lifecycle section wrong: %+v", st.Lifecycle)
	}
	if st.Heap.LiveObjects != 3 {
		t.Errorf("heap live objects = %d, want 3", st.Heap.LiveObjects)
	}
	for i, r := range refs {
		tl, ok := sys.ObjectTimeline(uint32(r))
		if !ok {
			t.Fatalf("no timeline for object %d", i)
		}
		if freed := i == 0; tl.Freed != freed {
			t.Errorf("object %d timeline freed = %v, want %v", i, tl.Freed, freed)
		}
		if i > 0 {
			if rc := sys.rc.RCOf(r); rc != 1 {
				t.Errorf("object %d rc = %d, want 1", i, rc)
			}
		}
	}
}

func TestTraceJSONEndpointServesChromeExport(t *testing.T) {
	sys, tid := diagSystem(t)
	r, err := sys.rc.NewObject(tid)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	var dup mem.Ref
	sys.rc.Copy(&dup, r)
	sys.rc.Destroy(r, dup)

	srv := httptest.NewServer(NewDebugMux(func() *System { return sys }))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/lfrc/trace.json")
	if err != nil {
		t.Fatalf("GET trace.json: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace.json is not Chrome trace JSON: %v", err)
	}
	phases := map[string]bool{}
	sawSpan := false
	for _, e := range trace.TraceEvents {
		phases[e.Ph] = true
		if e.Ph == "b" && strings.Contains(e.Name, "obj ") {
			sawSpan = true
		}
	}
	for _, ph := range []string{"M", "i", "b", "e"} {
		if !phases[ph] {
			t.Errorf("export lacks phase %q (got %v)", ph, phases)
		}
	}
	if !sawSpan {
		t.Errorf("no object lifetime span in export")
	}

	// The metrics endpoint must expose the lifecycle/census gauges too.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	mraw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"lfrc_lifecycle_tracked", "lfrc_census_live_objects", "lfrc_audit_passes_total"} {
		if !strings.Contains(string(mraw), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}
