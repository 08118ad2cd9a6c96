package lfrc_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lfrc"
)

// tracedSystem builds a fully-sampled system with some deque traffic on it.
func tracedSystem(t *testing.T) *lfrc.System {
	t.Helper()
	sys, err := lfrc.New(lfrc.WithObservability(lfrc.ObservabilityOptions{SampleEvery: 1}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatalf("NewDeque: %v", err)
	}
	for i := lfrc.Value(1); i <= 32; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("PushRight: %v", err)
		}
	}
	for {
		if _, ok := d.PopLeft(); !ok {
			break
		}
	}
	d.Close()
	return sys
}

func TestMetricsHandlerServesPrometheusText(t *testing.T) {
	sys := tracedSystem(t)
	srv := httptest.NewServer(sys.MetricsHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE lfrc_ops_total counter",
		`lfrc_ops_total{op="load"} `,
		`lfrc_ops_total{op="dcas"} `,
		"# TYPE lfrc_load_retries_total counter",
		"# TYPE lfrc_heap_live_objects gauge",
		"# TYPE lfrc_zombie_backlog gauge",
		"# TYPE lfrc_op_retries histogram",
		`lfrc_op_retries_bucket{le="+Inf"} `,
		"lfrc_op_retries_sum ",
		"lfrc_op_retries_count ",
		"# TYPE lfrc_op_latency_ns histogram",
		`lfrc_op_latency_ns_bucket{op="load",le=`,
		`lfrc_op_latency_ns_count{op="push_right"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Exposition-format sanity: no naked braces, every non-comment line is
	// "name value" or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestMetricsWithoutObserverOmitsHistograms(t *testing.T) {
	sys, err := lfrc.New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var sb strings.Builder
	sys.WriteMetrics(&sb)
	body := sb.String()
	if !strings.Contains(body, "lfrc_ops_total") {
		t.Error("counters missing without observer")
	}
	if strings.Contains(body, "lfrc_op_latency_ns") || strings.Contains(body, "lfrc_trace_recorded_total") {
		t.Error("recorder series present without observer")
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	sys := tracedSystem(t)
	srv := httptest.NewServer(lfrc.NewDebugMux(func() *lfrc.System { return sys }))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp, string(raw)
	}

	if resp, body := get("/metrics"); resp.StatusCode != 200 || !strings.Contains(body, "lfrc_ops_total") {
		t.Errorf("/metrics: status %d", resp.StatusCode)
	}

	if resp, body := get("/debug/lfrc/stats"); resp.StatusCode != 200 {
		t.Errorf("/debug/lfrc/stats: status %d", resp.StatusCode)
	} else {
		var st lfrc.Stats
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Errorf("/debug/lfrc/stats not JSON Stats: %v", err)
		} else if st.RC.Loads == 0 {
			t.Error("/debug/lfrc/stats reports zero loads after traffic")
		}
	}

	if resp, body := get("/debug/lfrc/trace"); resp.StatusCode != 200 {
		t.Errorf("/debug/lfrc/trace: status %d", resp.StatusCode)
	} else {
		var tr struct {
			Recorded uint64            `json:"recorded"`
			Latency  map[string]any    `json:"latency_ns"`
			Events   []json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &tr); err != nil {
			t.Errorf("/debug/lfrc/trace not JSON: %v", err)
		} else if tr.Recorded == 0 || len(tr.Events) == 0 || len(tr.Latency) == 0 {
			t.Errorf("/debug/lfrc/trace empty: recorded=%d events=%d", tr.Recorded, len(tr.Events))
		}
	}

	if resp, body := get("/debug/vars"); resp.StatusCode != 200 {
		t.Errorf("/debug/vars: status %d", resp.StatusCode)
	} else if !strings.Contains(body, `"lfrc"`) {
		t.Error("/debug/vars does not publish the lfrc variable")
	}

	if resp, body := get("/debug/pprof/"); resp.StatusCode != 200 || !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/: status %d", resp.StatusCode)
	}
}

func TestDebugMuxWithoutSystemAnswers503(t *testing.T) {
	srv := httptest.NewServer(lfrc.NewDebugMux(func() *lfrc.System { return nil }))
	defer srv.Close()
	for _, path := range []string{
		"/metrics",
		"/debug/lfrc/stats",
		"/debug/lfrc/trace",
		"/debug/lfrc/trace.json",
		"/debug/lfrc/contention",
		"/debug/lfrc/contention.pb.gz",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s without system: status %d, want 503", path, resp.StatusCode)
		}
	}
}

func TestDebugMuxContentTypesAnd404(t *testing.T) {
	sys := tracedSystem(t)
	srv := httptest.NewServer(lfrc.NewDebugMux(func() *lfrc.System { return sys }))
	defer srv.Close()

	for path, wantCT := range map[string]string{
		"/metrics":               "text/plain",
		"/debug/lfrc/stats":      "application/json",
		"/debug/lfrc/trace":      "application/json",
		"/debug/lfrc/trace.json": "application/json",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantCT) {
			t.Errorf("%s: Content-Type = %q, want prefix %q", path, ct, wantCT)
		}
	}

	for _, path := range []string{"/nope", "/debug/lfrc/unknown", "/metricsx"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// contendedSystem builds a contention-observed system and hammers one deque
// from four goroutines. Every fourth right-hat DCAS attempt is injected as
// failed, so retried pushes reach the observatory whether or not the
// goroutines ever collide.
func contendedSystem(t *testing.T) *lfrc.System {
	t.Helper()
	sys, err := lfrc.New(
		lfrc.WithObservability(lfrc.ObservabilityOptions{Contention: true, SampleEvery: 1}),
		lfrc.WithFaultPlan("snark.pushright:every=4"),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatalf("NewDeque: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := d.PushRight(lfrc.Value(i + 1)); err != nil {
					t.Error(err)
					return
				}
				d.PopRight()
			}
		}()
	}
	wg.Wait()
	d.Close()
	return sys
}

func TestDebugMuxContentionEndpoints(t *testing.T) {
	sys := contendedSystem(t)
	srv := httptest.NewServer(lfrc.NewDebugMux(func() *lfrc.System { return sys }))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/lfrc/contention")
	if err != nil {
		t.Fatalf("GET contention: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/lfrc/contention: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("contention report Content-Type = %q", ct)
	}
	if !strings.Contains(string(raw), "contention observatory") {
		t.Errorf("contention report body = %q", string(raw[:min(len(raw), 120)]))
	}

	resp, err = http.Get(srv.URL + "/debug/lfrc/contention.pb.gz")
	if err != nil {
		t.Fatalf("GET contention.pb.gz: %v", err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/lfrc/contention.pb.gz: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("contention profile Content-Type = %q", ct)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("contention profile is not gzip: %v", err)
	}
	if _, err := io.ReadAll(zr); err != nil {
		t.Fatalf("contention profile gunzip: %v", err)
	}
}

func TestMetricsIncludeContentionSeries(t *testing.T) {
	sys := contendedSystem(t)
	var sb strings.Builder
	sys.WriteMetrics(&sb)
	body := sb.String()
	for _, want := range []string{
		"# TYPE lfrc_contention_attempts_total counter",
		"# TYPE lfrc_contention_failures_total counter",
		"# TYPE lfrc_contention_wasted_ns_total counter",
		"# TYPE lfrc_contention_hot_cell gauge",
		"# TYPE lfrc_contention_dropped_total counter",
		"lfrc_contention_op_scale 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The injected right-hat failures end in retried pushes, whose cells
	// surface with their roles as labels.
	if len(sys.ContentionReport().Cells) == 0 {
		t.Fatal("no contention cells despite injected right-hat DCAS failures")
	}
	if !strings.Contains(body, `role="right_hat"`) {
		t.Errorf("no right_hat-labelled contention series in:\n%s", body)
	}
	// A system without contention observation emits none of these series.
	plain, err := lfrc.New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sb.Reset()
	plain.WriteMetrics(&sb)
	if strings.Contains(sb.String(), "lfrc_contention_") {
		t.Error("contention series present without contention observation")
	}
}
