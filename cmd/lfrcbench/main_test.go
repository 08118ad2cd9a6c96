package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lfrc/internal/workload"
)

func TestParseEngines(t *testing.T) {
	tests := []struct {
		give    string
		want    []workload.EngineKind
		wantErr bool
	}{
		{give: "locking", want: []workload.EngineKind{workload.EngineLocking}},
		{give: "mcas", want: []workload.EngineKind{workload.EngineMCAS}},
		{give: "MCAS", want: []workload.EngineKind{workload.EngineMCAS}},
		{give: " both ", want: workload.Engines},
		{give: "neither", wantErr: true},
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseEngines(tt.give)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseEngines(%q) error = %v, wantErr %v", tt.give, err, tt.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("parseEngines(%q) = %v, want %v", tt.give, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("parseEngines(%q)[%d] = %v, want %v", tt.give, i, got[i], tt.want[i])
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-engine", "bogus"}, io.Discard); err == nil {
		t.Error("run accepted a bogus engine")
	}
	if err := run([]string{"-workers", "0"}, io.Discard); err == nil {
		t.Error("run accepted zero workers")
	}
	err := run([]string{"-run", "E7,F1"}, io.Discard)
	if err == nil {
		t.Fatal("run accepted an unknown -run id")
	}
	if !strings.Contains(err.Error(), `"F1"`) || !strings.Contains(err.Error(), "R3") {
		t.Errorf("unknown -run id error should name the id and the valid ids: %v", err)
	}
}

func TestRunSingleQuickExperiment(t *testing.T) {
	// E7 at scale 1 is fast and deterministic.
	if err := run([]string{"-run", "E7", "-scale", "1"}, io.Discard); err != nil {
		t.Errorf("run(E7): %v", err)
	}
}

func TestStatsJSONDumpsOneObject(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "O2", "-dur", "20ms", "-stats-json"}, &out); err != nil {
		t.Fatalf("run(O2 -stats-json): %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var stats struct {
		Engine string `json:"engine"`
		Heap   struct {
			Allocs int64 `json:"allocs"`
		} `json:"heap"`
		RC struct {
			Loads int64 `json:"loads"`
		} `json:"rc"`
	}
	if err := json.Unmarshal([]byte(last), &stats); err != nil {
		t.Fatalf("last stdout line is not a Stats JSON object: %v\n%s", err, last)
	}
	if stats.Engine == "" || stats.Heap.Allocs == 0 || stats.RC.Loads == 0 {
		t.Errorf("stats dump looks empty: %s", last)
	}
}

func TestStatsJSONWithoutPublishingExperimentErrors(t *testing.T) {
	workload.SetCurrentSystem(nil)
	if err := run([]string{"-run", "E7", "-scale", "1", "-stats-json"}, io.Discard); err == nil {
		t.Error("run accepted -stats-json with no publishing experiment")
	}
}

// syncWriter lets the scraper goroutine read run's output while run writes.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

func TestMetricsFlagServesEndpoint(t *testing.T) {
	var out syncWriter
	scraped := make(chan string, 1)
	done := make(chan struct{})

	// run announces the bound address before the experiments execute and
	// serves until it returns; scrape /metrics while O2 is still running.
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			first := strings.SplitN(out.String(), "\n", 2)[0]
			if url, ok := strings.CutPrefix(first, "metrics listening on "); ok {
				resp, err := http.Get(strings.TrimSpace(url))
				if err == nil {
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					scraped <- string(raw)
					return
				}
			}
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()

	err := run([]string{"-run", "O2", "-dur", "100ms", "-metrics", "127.0.0.1:0"}, &out)
	close(done)
	if err != nil {
		t.Fatalf("run(O2 -metrics): %v", err)
	}
	select {
	case body := <-scraped:
		if !strings.Contains(body, "lfrc_ops_total") && !strings.Contains(body, "no live lfrc system") {
			t.Errorf("scrape returned neither metrics nor the no-system notice:\n%.400s", body)
		}
	default:
		t.Fatal("never scraped the announced metrics endpoint")
	}
	if !strings.HasPrefix(out.String(), "metrics listening on http://127.0.0.1:") {
		t.Errorf("no metrics announcement, got %q", strings.SplitN(out.String(), "\n", 2)[0])
	}
}

func TestMetricsFlagPrintsMachineReadableAddr(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "E7", "-scale", "1", "-metrics", "127.0.0.1:0"}, &out); err != nil {
		t.Fatalf("run(E7 -metrics): %v", err)
	}
	var addr string
	for _, line := range strings.Split(out.String(), "\n") {
		if a, ok := strings.CutPrefix(line, "metrics_addr="); ok {
			addr = strings.TrimSpace(a)
		}
	}
	if addr == "" {
		t.Fatalf("no metrics_addr= line in output:\n%.400s", out.String())
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil || host != "127.0.0.1" || port == "0" || port == "" {
		t.Errorf("metrics_addr %q is not a usable host:port (err=%v)", addr, err)
	}
}

func TestTraceFlagWritesChromeExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	// O2's full mode tracks every object, so the export has lifetime spans.
	if err := run([]string{"-run", "O2", "-dur", "20ms", "-trace", path}, &out); err != nil {
		t.Fatalf("run(O2 -trace): %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file is not Chrome trace JSON: %v", err)
	}
	phases := map[string]bool{}
	for _, e := range trace.TraceEvents {
		phases[e.Ph] = true
	}
	for _, ph := range []string{"M", "b", "e"} {
		if !phases[ph] {
			t.Errorf("export lacks phase %q events (got %v)", ph, phases)
		}
	}
	if !strings.Contains(out.String(), "trace written to ") {
		t.Errorf("no trace confirmation line:\n%.400s", out.String())
	}
}

func TestChaosComposesWithMetricsAndStatsJSON(t *testing.T) {
	workload.SetCurrentSystem(nil)
	var out bytes.Buffer
	err := run([]string{
		"-fault-plan", "core.load:p=0.01", "-dur", "50ms", "-workers", "2",
		"-metrics", "127.0.0.1:0", "-stats-json",
	}, &out)
	if err != nil {
		t.Fatalf("run(-fault-plan -metrics -stats-json): %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sawAddr, sawPass bool
	for _, line := range lines {
		sawAddr = sawAddr || strings.HasPrefix(line, "metrics_addr=")
		sawPass = sawPass || strings.HasPrefix(line, "chaos: PASS")
	}
	if !sawAddr {
		t.Errorf("no metrics_addr= line alongside -fault-plan:\n%.400s", out.String())
	}
	if !sawPass {
		t.Errorf("no chaos: PASS line:\n%.400s", out.String())
	}
	// The chaos run publishes its system, so -stats-json still applies: the
	// last line is a Stats object describing the chaos system.
	var stats struct {
		Engine string `json:"engine"`
		Fault  struct {
			Enabled bool `json:"enabled"`
		} `json:"fault"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &stats); err != nil {
		t.Fatalf("-stats-json after -fault-plan did not end with a Stats object: %v\n%s", err, last)
	}
	if stats.Engine != "locking" || !stats.Fault.Enabled {
		t.Errorf("stats do not describe the chaos system: %s", last)
	}
}

func TestChaosRejectsBothEngines(t *testing.T) {
	if err := run([]string{"-fault-plan", "x", "-engine", "both"}, io.Discard); err == nil {
		t.Error("run accepted -fault-plan with -engine both")
	}
}

func TestTraceFlagWithoutPublishingExperimentErrors(t *testing.T) {
	workload.SetCurrentSystem(nil)
	path := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-run", "E7", "-scale", "1", "-trace", path}, io.Discard); err == nil {
		t.Error("run accepted -trace with no publishing experiment")
	}
}
