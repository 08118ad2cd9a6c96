package lfrc_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"lfrc"
)

// newTimelineSystem builds a system with every subsystem the capture path
// reads enabled and the timeline in manual mode, plus a deque with some
// traffic so the counters are non-trivial.
func newTimelineSystem(t *testing.T, extra ...lfrc.Option) *lfrc.System {
	t.Helper()
	opts := append([]lfrc.Option{
		lfrc.WithTimeline(lfrc.TimelineOptions{Manual: true}),
		lfrc.WithObservability(lfrc.ObservabilityOptions{SampleEvery: 1, Contention: true}),
		lfrc.WithIncrementalDestroy(1),
	}, extra...)
	sys, err := lfrc.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(sys.Close)
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatalf("NewDeque: %v", err)
	}
	for i := lfrc.Value(1); i <= 32; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("PushRight: %v", err)
		}
	}
	for i := 0; i < 16; i++ {
		if _, ok := d.PopLeft(); !ok {
			t.Fatal("PopLeft: empty")
		}
	}
	d.Close()
	return sys
}

// TestTimelineJSONSchemaGolden locks the timeline.json key surface the same
// way stats_keys.golden locks Stats: cmd/lfrctop and external dashboards
// parse this document, so a key rename must surface as a golden diff.
//
// Regenerate with: UPDATE_GOLDEN=1 go test -run TestTimelineJSONSchemaGolden .
func TestTimelineJSONSchemaGolden(t *testing.T) {
	sys := newTimelineSystem(t)
	sys.CaptureTimelineSample()
	sys.CaptureTimelineSample()

	var buf bytes.Buffer
	if err := sys.WriteTimelineJSON(&buf); err != nil {
		t.Fatalf("WriteTimelineJSON: %v", err)
	}
	var tree map[string]any
	if err := json.Unmarshal(buf.Bytes(), &tree); err != nil {
		t.Fatalf("invalid timeline.json: %v", err)
	}
	if v, ok := tree["schema_version"].(float64); !ok || int(v) != 1 {
		t.Errorf("schema_version = %v, want 1", tree["schema_version"])
	}

	keys := keyPaths("", any(tree))
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "timeline_schema.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("timeline.json key set changed.\n--- got ---\n%s--- want (%s) ---\n%s"+
			"If the change is intentional, regenerate with UPDATE_GOLDEN=1 and call it out in review.",
			got, golden, want)
	}
}

// TestTimelineCapturesSystemActivity drives real structure traffic between
// manual captures and checks the deltas land in the right fields.
func TestTimelineCapturesSystemActivity(t *testing.T) {
	sys := newTimelineSystem(t)
	sys.CaptureTimelineSample() // baseline

	d, err := sys.NewDeque()
	if err != nil {
		t.Fatalf("NewDeque: %v", err)
	}
	for i := lfrc.Value(1); i <= 64; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("PushRight: %v", err)
		}
	}
	sys.CaptureTimelineSample()

	var samples []lfrc.TimelineSample
	for sm := range sys.Timeline() {
		samples = append(samples, sm)
	}
	if len(samples) != 2 {
		t.Fatalf("retained %d samples, want 2", len(samples))
	}
	last := samples[1]
	if last.HeapAllocs < 64 {
		t.Errorf("interval HeapAllocs = %d, want >= 64 (one per pushed node)", last.HeapAllocs)
	}
	if last.RCDCAS <= 0 {
		t.Errorf("interval RCDCAS = %d, want > 0", last.RCDCAS)
	}
	if last.Ops() <= 0 || last.DurNS <= 0 || last.Rate() <= 0 {
		t.Errorf("ops/dur/rate = %d/%d/%v, want all > 0", last.Ops(), last.DurNS, last.Rate())
	}
	if last.HeapLiveObjects <= 0 {
		t.Errorf("live-objects gauge = %d, want > 0", last.HeapLiveObjects)
	}
	if last.Shards <= 0 {
		t.Errorf("Shards = %d, want > 0", last.Shards)
	}
	st := sys.TimelineStats()
	if st.Captures != 2 || st.Retained != 2 {
		t.Errorf("TimelineStats = %+v, want 2 captures retained", st)
	}
	d.Close()
}

// TestTimelineLimboSeries checks the acceptance-criteria shape: under an
// incremental-destroy budget of 1, the pending-limbo series must rise while
// closed sets park their chains on the zombie stack and drain back down —
// visible across the captured intervals.
func TestTimelineLimboSeries(t *testing.T) {
	sys := newTimelineSystem(t)

	maxPending := int64(0)
	for round := 0; round < 20; round++ {
		set, err := sys.NewSet()
		if err != nil {
			t.Fatalf("NewSet: %v", err)
		}
		for k := lfrc.Value(16); k > 0; k-- {
			if _, err := set.Insert(k); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		set.Close() // one release: frees one node, parks the next
		sys.CaptureTimelineSample()
	}
	for sm := range sys.Timeline() {
		if sm.ReclaimPending > maxPending {
			maxPending = sm.ReclaimPending
		}
	}
	if maxPending == 0 {
		t.Fatal("limbo-depth series never rose above zero under a destroy budget of 1")
	}
	sys.DrainZombies(0)
	sys.CaptureTimelineSample()
	var last lfrc.TimelineSample
	for sm := range sys.Timeline() {
		last = sm
	}
	if last.ReclaimPending != 0 {
		t.Errorf("limbo series did not drain: final pending %d, peak %d", last.ReclaimPending, maxPending)
	}
}

// TestTimelineBackgroundSampling exercises the WithTimeline background
// goroutine end to end at a fast cadence.
func TestTimelineBackgroundSampling(t *testing.T) {
	sys, err := lfrc.New(lfrc.WithTimeline(lfrc.TimelineOptions{Interval: time.Millisecond, Slots: 32}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	deadline := time.Now().Add(2 * time.Second)
	for sys.TimelineStats().Captures < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sys.TimelineStats().Captures; got < 5 {
		t.Fatalf("background sampler captured %d in 2s, want >= 5", got)
	}
	sys.Close()
	after := sys.TimelineStats().Captures
	time.Sleep(5 * time.Millisecond)
	if got := sys.TimelineStats().Captures; got != after {
		t.Errorf("sampler still running after Close: %d -> %d", after, got)
	}
}

// TestTimelineDisabledIsInert checks every surface answers sanely without
// WithTimeline.
func TestTimelineDisabledIsInert(t *testing.T) {
	sys, err := lfrc.New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	sys.CaptureTimelineSample() // no-op
	for range sys.Timeline() {
		t.Fatal("disabled timeline yielded a sample")
	}
	if st := sys.TimelineStats(); st != (lfrc.TimelineStats{}) {
		t.Errorf("disabled TimelineStats = %+v, want zero", st)
	}
	var buf bytes.Buffer
	if err := sys.WriteTimelineJSON(&buf); err != nil {
		t.Fatalf("WriteTimelineJSON: %v", err)
	}
	var doc struct {
		Enabled       bool `json:"enabled"`
		SchemaVersion int  `json:"schema_version"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid disabled document: %v", err)
	}
	if doc.Enabled || doc.SchemaVersion != 1 {
		t.Errorf("disabled doc = %+v", doc)
	}
}

// TestTimelineDebugEndpoints checks the mux serves both timeline encodings.
func TestTimelineDebugEndpoints(t *testing.T) {
	sys := newTimelineSystem(t)
	sys.CaptureTimelineSample()
	mux := lfrc.NewDebugMux(func() *lfrc.System { return sys })

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/lfrc/timeline.json", nil))
	if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte(`"schema_version": 1`)) {
		t.Errorf("timeline.json: code %d body %.120s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/lfrc/timeline.csv", nil))
	if rec.Code != 200 || !strings.HasPrefix(rec.Body.String(), "seq,ts,dur_ns") {
		t.Errorf("timeline.csv: code %d body %.120s", rec.Code, rec.Body.String())
	}
}
