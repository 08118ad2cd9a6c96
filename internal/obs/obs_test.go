package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if tok := r.Sample(); tok != 0 {
		t.Errorf("nil Sample() = %d, want 0", tok)
	}
	r.Record(123, KindLoad, 1, 2, true, 0)
	r.Note(KindAlloc, 1, 0)
	if got := r.Events(); got != nil {
		t.Errorf("nil Events() = %v, want nil", got)
	}
	if got := r.Trace(); got.Recorded != 0 || len(got.Events) != 0 {
		t.Errorf("nil Trace() = %+v, want zero", got)
	}
	if got := r.Postmortems(); got != nil {
		t.Errorf("nil Postmortems() = %v, want nil", got)
	}
	if r.SampleEvery() != 0 {
		t.Errorf("nil SampleEvery() = %d, want 0", r.SampleEvery())
	}
	p := r.CapturePostmortem("x", 7)
	if p.Ref != 7 || len(p.Events) != 0 {
		t.Errorf("nil CapturePostmortem = %+v", p)
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	r := New(WithSampleEvery(0))
	for i := 0; i < 100; i++ {
		if tok := r.Sample(); tok != 0 {
			t.Fatalf("disabled Sample() = %d, want 0", tok)
		}
		r.Note(KindAlloc, uint32(i), 0)
	}
	if got := r.Recorded(); got != 0 {
		t.Errorf("disabled recorder recorded %d events, want 0", got)
	}
}

func TestFullSamplingRecordsEverything(t *testing.T) {
	r := New(WithSampleEvery(1), WithStripes(2), WithRingSize(256))
	const n = 100
	for i := 0; i < n; i++ {
		t0 := r.Sample()
		if t0 == 0 {
			t.Fatal("full sampling returned 0 token")
		}
		r.Record(t0, KindDCAS, uint32(i+8), uint32(i+100), i%2 == 0, uint32(i%3))
	}
	if got := r.Recorded(); got != n {
		t.Errorf("Recorded() = %d, want %d", got, n)
	}
	evs := r.Events()
	if len(evs) != n {
		t.Fatalf("Events() len = %d, want %d", len(evs), n)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not seq-ordered: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	// Round-trip of every packed field.
	var found bool
	for _, e := range evs {
		if e.Ref == 9 { // i == 1
			found = true
			if e.Kind != KindDCAS || e.Addr != 101 || e.OK || e.Retries != 1 {
				t.Errorf("event round-trip broken: %+v", e)
			}
			if e.TS == 0 {
				t.Error("event timestamp is zero")
			}
		}
	}
	if !found {
		t.Error("recorded event not found in snapshot")
	}

	lat := r.LatencySnapshots()
	if lat[KindDCAS].Count() != n {
		t.Errorf("DCAS latency count = %d, want %d", lat[KindDCAS].Count(), n)
	}
	if got := r.RetrySnapshot().Count(); got != n {
		t.Errorf("retry count = %d, want %d", got, n)
	}
}

func TestSampledRecordingIsSparse(t *testing.T) {
	r := New(WithSampleEvery(8), WithStripes(1))
	const n = 800
	for i := 0; i < n; i++ {
		if t0 := r.Sample(); t0 != 0 {
			r.Record(t0, KindLoad, 1, 2, true, 0)
		}
	}
	got := r.Recorded()
	if got != n/8 {
		t.Errorf("Recorded() = %d, want %d (1-in-8 on one stripe)", got, n/8)
	}
}

func TestRingWraps(t *testing.T) {
	r := New(WithSampleEvery(1), WithStripes(1), WithRingSize(16))
	const n = 100
	for i := 0; i < n; i++ {
		t0 := r.Sample()
		r.Record(t0, KindStore, uint32(i+1), 0, true, 0)
	}
	evs := r.Events()
	if len(evs) != 16 {
		t.Fatalf("Events() len = %d, want ring size 16", len(evs))
	}
	if evs[0].Seq != n-16+1 || evs[len(evs)-1].Seq != n {
		t.Errorf("ring kept [%d, %d], want the most recent [%d, %d]",
			evs[0].Seq, evs[len(evs)-1].Seq, n-16+1, n)
	}
}

func TestEventsTouchingAndPostmortem(t *testing.T) {
	r := New(WithSampleEvery(1), WithStripes(1), WithRingSize(256))
	const victim = 0x40
	// Events on the victim by ref, by cell address, and unrelated noise.
	for i := 0; i < 10; i++ {
		r.Record(r.Sample(), KindLoad, victim, 0, true, 0)
		r.Record(r.Sample(), KindStore, 9999, victim+3, true, 0) // victim's field cell
		r.Record(r.Sample(), KindCAS, 5000, 5001, true, 0)       // unrelated
	}
	got := r.EventsTouching(victim, 100)
	if len(got) != 20 {
		t.Fatalf("EventsTouching = %d events, want 20", len(got))
	}
	limited := r.EventsTouching(victim, 5)
	if len(limited) != 5 {
		t.Fatalf("EventsTouching(n=5) = %d events", len(limited))
	}
	if limited[0].Seq >= limited[4].Seq {
		t.Error("postmortem events not oldest-first")
	}
	// The limited window must be the *last* 5.
	if limited[4].Seq != got[len(got)-1].Seq {
		t.Error("EventsTouching(n) did not keep the trailing events")
	}

	p := r.CapturePostmortem("poison corruption", victim)
	if p.Ref != victim || p.Reason != "poison corruption" {
		t.Errorf("postmortem header = %+v", p)
	}
	if len(p.Events) == 0 {
		t.Fatal("postmortem captured no events")
	}
	if !strings.Contains(p.String(), "ref=0x40") {
		t.Errorf("postmortem string does not name the ref: %s", p.String())
	}
	pms := r.Postmortems()
	if len(pms) != 1 || pms[0].Ref != victim {
		t.Errorf("Postmortems() = %+v", pms)
	}
	// The capture itself leaves a violation event in the ring.
	tr := r.Trace()
	var sawViolation bool
	for _, e := range tr.Events {
		if e.Kind == KindViolation && e.Ref == victim {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Error("no violation event recorded by CapturePostmortem")
	}
	if len(tr.Postmortems) != 1 {
		t.Errorf("Trace postmortems = %d, want 1", len(tr.Postmortems))
	}
}

func TestTraceDigests(t *testing.T) {
	r := New(WithSampleEvery(1), WithStripes(1))
	for i := 0; i < 50; i++ {
		r.Record(r.Sample(), KindLoad, 8, 9, true, 2)
	}
	tr := r.Trace()
	if tr.SampleEvery != 1 || tr.Recorded != 50 {
		t.Errorf("trace header = %+v", tr)
	}
	if tr.Latency["load"].Count != 50 {
		t.Errorf("load latency count = %d, want 50", tr.Latency["load"].Count)
	}
	if tr.Retries.Count != 50 || tr.Retries.Max != 2 {
		t.Errorf("retries digest = %+v", tr.Retries)
	}
}

// TestConcurrentRecordAndSnapshot hammers the recorder from many writers
// while snapshotting; under -race this also proves the seqlock discipline is
// race-clean, and every returned event must be internally consistent (never
// torn).
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := New(WithSampleEvery(1), WithRingSize(64))
	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker writes a self-consistent pattern: ref == addr.
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := uint32(w*1_000_000 + i + 1)
				r.Record(r.Sample(), KindDCAS, v, v, true, 0)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for _, e := range r.Events() {
			if e.Ref != e.Addr {
				t.Errorf("torn event: ref=%d addr=%d", e.Ref, e.Addr)
			}
			if e.Kind != KindDCAS {
				t.Errorf("torn event kind: %v", e.Kind)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestKindString(t *testing.T) {
	if KindLoad.String() != "load" || KindZombiePush.String() != "zombie_push" {
		t.Error("kind names wrong")
	}
	if Kind(200).String() != "Kind(200)" {
		t.Errorf("out-of-range kind = %s", Kind(200))
	}
}

func TestPostmortemRingKeepsNewest(t *testing.T) {
	r := New(WithSampleEvery(1), WithStripes(1))
	const captures = maxPostmortems + 8
	for i := 0; i < captures; i++ {
		r.CapturePostmortem(fmt.Sprintf("cap %d", i), uint32(i+1))
	}
	pms := r.Postmortems()
	if len(pms) != maxPostmortems {
		t.Fatalf("retained %d postmortems, want %d", len(pms), maxPostmortems)
	}
	// Oldest-first rotation: the survivors are the newest captures.
	for i, p := range pms {
		wantRef := uint32(captures - maxPostmortems + i + 1)
		if p.Ref != wantRef {
			t.Fatalf("pms[%d].Ref = %d, want %d (ring not rotated oldest-first)", i, p.Ref, wantRef)
		}
	}
	if got := r.PostmortemCount(); got != captures {
		t.Errorf("PostmortemCount = %d, want %d", got, captures)
	}
}

func TestPostmortemConcurrentCapture(t *testing.T) {
	r := New(WithSampleEvery(1))
	const (
		workers = 8
		each    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.CapturePostmortem("storm", uint32(w*each+i+1))
				// Interleave reads with captures: the ring must stay
				// well-formed under concurrent rotation.
				if pms := r.Postmortems(); len(pms) > maxPostmortems {
					t.Errorf("ring overflow: %d retained", len(pms))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.PostmortemCount(); got != workers*each {
		t.Errorf("PostmortemCount = %d, want %d (lost captures under concurrency)", got, workers*each)
	}
	for _, p := range r.Postmortems() {
		if p.Ref == 0 || p.Reason != "storm" {
			t.Errorf("malformed retained postmortem: %+v", p)
		}
	}
}

// recordingSink collects sink deliveries for tap tests. It claims every ref
// it sees allocated, mirroring the ledger's birth-time decision.
type recordingSink struct {
	mu     sync.Mutex
	wanted *RefSet
	got    []Event
}

func (s *recordingSink) Tracked() *RefSet { return s.wanted }

func (s *recordingSink) OnEvent(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, e)
	if e.Kind == KindAlloc {
		s.wanted.Add(e.Ref)
	}
}

func (s *recordingSink) events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.got...)
}

func TestSinkSeesUnsampledEventsForWantedRefs(t *testing.T) {
	// Op sampling off: the ring must stay empty, yet the sink must still
	// receive every alloc (to decide tracking) and every event touching a
	// ref it claimed.
	r := New(WithSampleEvery(0), WithStripes(1))
	sink := &recordingSink{wanted: NewRefSet(16)}
	r.SetSink(sink)

	r.Record(r.Sample(), KindAlloc, 0x10, 0, false, 0)
	r.Record(r.Sample(), KindLoad, 0x10, 0x99, true, 2)
	r.Record(r.Sample(), KindLoad, 0x20, 0, true, 0) // unclaimed ref
	r.Note(KindZombiePush, 0x10, 0)

	if got := r.Recorded(); got != 0 {
		t.Errorf("ring recorded %d events with sampling off", got)
	}
	evs := sink.events()
	if len(evs) != 3 {
		t.Fatalf("sink got %d events, want 3 (alloc, load, zombie_push): %+v", len(evs), evs)
	}
	if evs[0].Kind != KindAlloc || evs[1].Kind != KindLoad || evs[2].Kind != KindZombiePush {
		t.Errorf("sink event kinds = %v %v %v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	if evs[1].Addr != 0x99 || evs[1].Retries != 2 {
		t.Errorf("sink load event lost fields: %+v", evs[1])
	}
}

func TestRecordCarriesTransitionValues(t *testing.T) {
	r := New(WithSampleEvery(1), WithStripes(1))
	r.RecordT(r.Sample(), KindCopy, 0x10, 0, true, 0, 3, 4)
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	if evs[0].Old != 3 || evs[0].New != 4 {
		t.Errorf("transition = %d->%d, want 3->4", evs[0].Old, evs[0].New)
	}
	if !strings.Contains(evs[0].String(), "3->4") {
		t.Errorf("String() omits the transition: %s", evs[0])
	}
}

// TestTapChecksKeepSemantics pins what the inlined "nil or off" checks of
// Sample, RecordT and Note may skip: only work no ring and no sink wants.
func TestTapChecksKeepSemantics(t *testing.T) {
	var nilRec *Recorder
	off := New(WithSampleEvery(0), WithStripes(1))
	for name, r := range map[string]*Recorder{"nil": nilRec, "disabled": off} {
		if tok := r.Sample(); tok != 0 {
			t.Errorf("%s Sample() = %d, want 0", name, tok)
		}
		r.RecordT(0, KindLoad, 0x10, 0, true, 0, 1, 2)
		r.Note(KindZombiePush, 0x10, 0)
		if got := r.Recorded(); got != 0 {
			t.Errorf("%s recorder recorded %d events", name, got)
		}
	}

	// Sampling on, no sink: an unsampled operation (t0 = 0) records nothing.
	on := New(WithSampleEvery(1), WithStripes(1))
	on.RecordT(0, KindLoad, 0x10, 0, true, 0, 1, 2)
	if got := on.Recorded(); got != 0 {
		t.Errorf("unsampled RecordT recorded %d events, want 0", got)
	}

	// Sampling off, sink installed: a claimed ref's event still reaches
	// the sink, with TS 0 and its transition, and never the ring.
	sink := &recordingSink{wanted: NewRefSet(16)}
	off.SetSink(sink)
	off.RecordT(0, KindAlloc, 0x10, 0, true, 0, 1, 7)
	off.RecordT(0, KindDestroy, 0x10, 0, true, 0, 2, 1)
	off.RecordT(0, KindDestroy, 0x20, 0, true, 0, 2, 1) // unclaimed ref
	off.Note(KindZombiePush, 0x10, 0)
	if got := off.Recorded(); got != 0 {
		t.Errorf("ring recorded %d events with sampling off", got)
	}
	evs := sink.events()
	if len(evs) != 3 {
		t.Fatalf("sink got %d events, want 3 (alloc, destroy, zombie_push): %+v", len(evs), evs)
	}
	if e := evs[1]; e.Kind != KindDestroy || e.TS != 0 || e.Old != 2 || e.New != 1 {
		t.Errorf("sink-only destroy = %+v, want TS 0 and transition 2->1", e)
	}
	if e := evs[2]; e.Kind != KindZombiePush || e.TS != 0 {
		t.Errorf("sink-only note = %+v, want zombie_push with TS 0", e)
	}
}
