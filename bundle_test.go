package lfrc_test

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"lfrc"
)

// readBundle unpacks a bundle into name → bytes.
func readBundle(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	out := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle tar: %v", err)
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("bundle entry %s: %v", hdr.Name, err)
		}
		out[hdr.Name] = b
	}
	return out
}

// bundleSystem builds a fully instrumented quiesced system with some real
// traffic behind it.
func bundleSystem(t *testing.T) *lfrc.System {
	t.Helper()
	sys, err := lfrc.New(
		lfrc.WithObservability(lfrc.ObservabilityOptions{Contention: true, SampleEvery: 4, LifecycleEvery: 1}),
		lfrc.WithFaultPlan("core.load:nth=1000000000"),
		lfrc.WithTimeline(lfrc.TimelineOptions{Manual: true}),
	)
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
	for i := 0; i < 8; i++ {
		if _, ok := d.PopLeft(); !ok {
			t.Fatal("PopLeft on a non-empty deque reported empty")
		}
	}
	sys.CaptureTimelineSample()
	sys.CaptureTimelineSample()
	return sys
}

// TestBundleRoundTrip: the bundle's manifest names exactly the artifacts the
// archive carries, and every artifact parses as what it claims to be.
func TestBundleRoundTrip(t *testing.T) {
	sys := bundleSystem(t)
	var buf bytes.Buffer
	if err := sys.WriteBundle(&buf); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	arts := readBundle(t, buf.Bytes())

	var m lfrc.BundleManifest
	if err := json.Unmarshal(arts["manifest.json"], &m); err != nil {
		t.Fatalf("manifest.json: %v", err)
	}
	if m.SchemaVersion != lfrc.BundleSchemaVersion || m.Engine == "" || m.Reclaimer == "" {
		t.Errorf("manifest = %+v", m)
	}
	if m.FaultPlan != "core.load:nth=1000000000" || m.FaultSeed == 0 {
		t.Errorf("manifest fault context = plan %q seed %d", m.FaultPlan, m.FaultSeed)
	}
	if len(m.Artifacts) != len(arts) {
		t.Errorf("manifest lists %d artifacts, archive holds %d", len(m.Artifacts), len(arts))
	}
	for _, name := range m.Artifacts {
		if _, ok := arts[name]; !ok {
			t.Errorf("manifest names %s but the archive lacks it", name)
		}
	}

	for _, name := range []string{"stats.json", "timeline.json", "incidents.json", "census.json", "postmortems.json"} {
		var v map[string]any
		if err := json.Unmarshal(arts[name], &v); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
	var tl struct {
		Enabled bool             `json:"enabled"`
		Samples []map[string]any `json:"samples"`
	}
	if err := json.Unmarshal(arts["timeline.json"], &tl); err != nil || !tl.Enabled || len(tl.Samples) != 2 {
		t.Errorf("timeline.json = enabled %v, %d samples (err %v)", tl.Enabled, len(tl.Samples), err)
	}
	for _, name := range []string{"census.pb.gz", "contention.pb.gz"} {
		b := arts[name]
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s is not gzip", name)
		}
	}
	if !bytes.Contains(arts["metrics.txt"], []byte("lfrc_ops_total")) ||
		!bytes.Contains(arts["metrics.txt"], []byte("lfrc_watchdog_evals_total")) {
		t.Error("metrics.txt missing expected series")
	}
}

// stripVolatile removes the capture-instant fields from a decoded artifact.
func stripVolatile(m map[string]any) {
	delete(m, "created_ns")
	delete(m, "ts")
	delete(m, "wall_ns")
}

// TestBundleDeterminism: two bundles from the same quiesced system must agree
// on manifest, stats, census, and incidents modulo capture timestamps — the
// bundle is a pure function of system state, not of when it was taken.
func TestBundleDeterminism(t *testing.T) {
	sys := bundleSystem(t)
	var b1, b2 bytes.Buffer
	if err := sys.WriteBundle(&b1); err != nil {
		t.Fatalf("WriteBundle #1: %v", err)
	}
	if err := sys.WriteBundle(&b2); err != nil {
		t.Fatalf("WriteBundle #2: %v", err)
	}
	a1, a2 := readBundle(t, b1.Bytes()), readBundle(t, b2.Bytes())

	for _, name := range []string{"manifest.json", "stats.json", "census.json", "incidents.json", "postmortems.json"} {
		var v1, v2 map[string]any
		if err := json.Unmarshal(a1[name], &v1); err != nil {
			t.Fatalf("%s #1: %v", name, err)
		}
		if err := json.Unmarshal(a2[name], &v2); err != nil {
			t.Fatalf("%s #2: %v", name, err)
		}
		stripVolatile(v1)
		stripVolatile(v2)
		if !reflect.DeepEqual(v1, v2) {
			t.Errorf("%s differs between two quiesced captures:\n#1: %v\n#2: %v", name, v1, v2)
		}
	}
}

// TestBundleWhileMutating: capturing a bundle while workers hammer the heap
// must be race-clean and structurally sound (run under -race by make check).
func TestBundleWhileMutating(t *testing.T) {
	sys, err := lfrc.New(
		lfrc.WithObservability(lfrc.ObservabilityOptions{Contention: true, SampleEvery: 16}),
		lfrc.WithTimeline(lfrc.TimelineOptions{Interval: 2 * time.Millisecond}),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sys.Close()
	q, err := sys.NewQueue()
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed lfrc.Value) {
			defer wg.Done()
			for i := lfrc.Value(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := q.Enqueue(seed*1000 + i%97); err != nil {
					t.Error(err)
					return
				}
				q.Dequeue()
			}
		}(lfrc.Value(w + 1))
	}
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := sys.WriteBundle(&buf); err != nil {
			t.Fatalf("WriteBundle under load: %v", err)
		}
		arts := readBundle(t, buf.Bytes())
		var m lfrc.BundleManifest
		if err := json.Unmarshal(arts["manifest.json"], &m); err != nil {
			t.Fatalf("manifest under load: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
