package lfrc_test

import (
	"testing"

	"lfrc"
)

func TestTraceRecordsOperations(t *testing.T) {
	sys, err := lfrc.New(lfrc.WithObservability(lfrc.ObservabilityOptions{SampleEvery: 1}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatalf("NewDeque: %v", err)
	}
	for i := lfrc.Value(1); i <= 50; i++ {
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

	tr := sys.Trace()
	if tr.SampleEvery != 1 {
		t.Errorf("SampleEvery = %d, want 1", tr.SampleEvery)
	}
	if tr.Recorded == 0 || len(tr.Events) == 0 {
		t.Fatalf("full-sampling trace is empty: recorded=%d events=%d", tr.Recorded, len(tr.Events))
	}
	for _, kind := range []string{"load", "push_right", "pop_left", "alloc", "free"} {
		if tr.Latency[kind].Count == 0 {
			t.Errorf("no %q latency samples in trace digest", kind)
		}
	}
	if tr.Retries.Count == 0 {
		t.Error("no retry samples in trace digest")
	}
}

func TestObserverDisabledByDefault(t *testing.T) {
	sys, err := lfrc.New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatalf("NewDeque: %v", err)
	}
	if err := d.PushRight(1); err != nil {
		t.Fatalf("PushRight: %v", err)
	}
	d.Close()

	tr := sys.Trace()
	if tr.Recorded != 0 || len(tr.Events) != 0 || tr.SampleEvery != 0 {
		t.Errorf("default system recorded a trace: %+v", tr)
	}
	if pms := sys.Postmortems(); pms != nil {
		t.Errorf("default system has postmortems: %v", pms)
	}
}

// TestTraceSamplingZeroInstallsDisabledRecorder pins the installed-but-
// disabled recorder: it is installed (its fixed hot-path cost is paid) but
// records nothing.
func TestTraceSamplingZeroInstallsDisabledRecorder(t *testing.T) {
	sys, err := lfrc.New(lfrc.WithObservability(lfrc.ObservabilityOptions{SampleEvery: -1}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatalf("NewDeque: %v", err)
	}
	for i := lfrc.Value(1); i <= 20; i++ {
		if err := d.PushRight(i); err != nil {
			t.Fatalf("PushRight: %v", err)
		}
	}
	d.Close()

	tr := sys.Trace()
	if tr.Recorded != 0 || len(tr.Events) != 0 {
		t.Errorf("sampling-0 recorder recorded events: %+v", tr)
	}
}

func TestTraceSampledIsSparse(t *testing.T) {
	sys, err := lfrc.New(lfrc.WithObservability(lfrc.ObservabilityOptions{Observer: true})) // default 1-in-64 sampling
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		t.Fatalf("NewDeque: %v", err)
	}
	const ops = 2000
	for i := 0; i < ops; i++ {
		if err := d.PushRight(lfrc.Value(i + 1)); err != nil {
			t.Fatalf("PushRight: %v", err)
		}
		if _, ok := d.PopLeft(); !ok {
			t.Fatal("PopLeft on non-empty deque failed")
		}
	}
	d.Close()

	tr := sys.Trace()
	if tr.SampleEvery != 64 {
		t.Errorf("default SampleEvery = %d, want 64", tr.SampleEvery)
	}
	if tr.Recorded == 0 {
		t.Fatal("sampled recorder recorded nothing over 2000 op pairs")
	}
	// Each push/pop pair fans out into several recordable ops; even so,
	// 1-in-64 sampling must record well under the op count.
	if tr.Recorded > ops {
		t.Errorf("sampled recorder recorded %d events over %d op pairs; sampling broken", tr.Recorded, ops)
	}
}
