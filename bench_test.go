// Benchmarks that gate a behaviour, not a speed: the timeline capture path's
// 1µs budget and the watchdog quiet path's zero allocations and zero
// firings. `make bench-smoke` runs both. Performance records come from the
// benchmark under bench/.
package lfrc_test

import (
	"testing"
	"time"

	"lfrc"
	"lfrc/internal/watchdog"
)

// BenchmarkTimelineCapture measures one telemetry snapshot against a live
// system carrying real state (allocations, RC traffic, contention table,
// observer histograms) — the cost the background sampler pays every
// interval. The capture path is designed to allocate nothing and stay under
// 1µs/snapshot, and the benchmark fails outright past that bound so
// bench-smoke gates it (experiment O4).
func BenchmarkTimelineCapture(b *testing.B) {
	sys, err := lfrc.New(
		lfrc.WithTimeline(lfrc.TimelineOptions{Manual: true}),
		lfrc.WithObservability(lfrc.ObservabilityOptions{Contention: true, SampleEvery: 64}),
	)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer sys.Close()
	d, err := sys.NewDeque()
	if err != nil {
		b.Fatalf("NewDeque: %v", err)
	}
	for i := 0; i < 256; i++ {
		if err := d.PushRight(lfrc.Value(i)); err != nil {
			b.Fatalf("PushRight: %v", err)
		}
	}
	for i := 0; i < 128; i++ {
		d.PopLeft()
	}

	// Warm the capture path (first-touch of the ring slots, histogram
	// buckets) so the budget judges the steady-state cost the sampler
	// actually pays every interval, even under bench-smoke's -benchtime=1x.
	for i := 0; i < 16; i++ {
		sys.CaptureTimelineSample()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.CaptureTimelineSample()
	}
	b.StopTimer()

	// The budget check takes the best of a few fixed-size batches rather
	// than the b.N average: a scheduler preemption inside a tiny -benchtime
	// run must not fail the gate, while a real capture-path regression (a
	// full contention-table scan, an allocation) slows every batch and
	// still trips it.
	// Batches are kept short (~15µs) so on busy shared hardware at least
	// one lands between preemptions.
	best := time.Duration(1 << 62)
	for batch := 0; batch < 16; batch++ {
		const per = 16
		start := time.Now()
		for i := 0; i < per; i++ {
			sys.CaptureTimelineSample()
		}
		if d := time.Since(start) / per; d < best {
			best = d
		}
	}
	if best > time.Microsecond {
		b.Fatalf("timeline capture took %v/snapshot at best, budget is 1µs", best)
	}
}

// BenchmarkWatchdogQuietPath measures one watchdog rule evaluation over a
// healthy sample — the incremental cost the always-on watchdog adds to every
// timeline capture (experiment O6 measures the end-to-end overhead). The
// quiet path must stay allocation-free: a nonzero allocs/op here means a rule
// closure started boxing its evidence.
func BenchmarkWatchdogQuietPath(b *testing.B) {
	eng := watchdog.New(watchdog.Options{})
	var in watchdog.Input
	in.Sample.DurNS = int64(100 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Sample.Seq++
		in.Sample.TS += in.Sample.DurNS
		eng.Observe(&in)
	}
	b.StopTimer()
	if st := eng.Stats(); st.Firings != 0 {
		b.Fatalf("quiet-path benchmark fired %d incidents", st.Firings)
	}
}
