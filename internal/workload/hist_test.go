package workload

import (
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Errorf("empty histogram not zero: %s", h.String())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast ops, 10 slow ops: p50 must be fast-scale, p99 slow-scale.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	if got := h.Quantile(0.5); got > 10*time.Microsecond {
		t.Errorf("p50 = %v, want fast-scale", got)
	}
	if got := h.Quantile(0.99); got < 100*time.Microsecond {
		t.Errorf("p99 = %v, want slow-scale", got)
	}
	if got := h.Max(); got != time.Millisecond {
		t.Errorf("max = %v, want 1ms", got)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d, want 100", h.Count())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Microsecond)
	b.Observe(time.Second)
	a.Merge(&b)
	if a.Count() != 2 {
		t.Errorf("merged count = %d, want 2", a.Count())
	}
	if a.Max() != time.Second {
		t.Errorf("merged max = %v, want 1s", a.Max())
	}
}

// TestHistogramBucketBoundaries pins the documented bucket bounds at exact
// boundary durations — the regression test for the off-by-one where Observe
// placed a duration in [2^k, 2^(k+1)) into bucket k+1.
func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	cases := []struct {
		d    time.Duration
		want int
	}{
		{1 * time.Nanosecond, 0}, // bucket 0: {0ns, 1ns}
		{2 * time.Nanosecond, 1}, // bucket 1: [2ns, 4ns)
		{3 * time.Nanosecond, 1}, // bucket 1: [2ns, 4ns)
		{4 * time.Nanosecond, 2}, // bucket 2: [4ns, 8ns)
	}
	for _, c := range cases {
		if got := h.BucketFor(c.d); got != c.want {
			t.Errorf("BucketFor(%v) = %d, want bucket %d", c.d, got, c.want)
		}
	}
	// The quantile upper bound follows the documented bounds: a histogram
	// holding only 3ns must report the top of [2ns, 4ns).
	h.Observe(3 * time.Nanosecond)
	if got := h.Quantile(1.0); got != 4*time.Nanosecond {
		t.Errorf("Quantile(1.0) after Observe(3ns) = %v, want 4ns", got)
	}
}

func TestHistogramNegativeAndZero(t *testing.T) {
	var h Histogram
	h.Observe(-5 * time.Second) // clamped
	h.Observe(0)
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2", h.Count())
	}
	if got := h.Quantile(1.0); got > time.Nanosecond {
		t.Errorf("all-zero quantile = %v", got)
	}
}

// TestQuickHistogramQuantileBounds: the reported quantile is always an
// upper bound within 2x of some observed sample, and quantiles are
// monotone in q.
func TestQuickHistogramQuantileBounds(t *testing.T) {
	f := func(samplesRaw []uint32) bool {
		if len(samplesRaw) == 0 {
			return true
		}
		if len(samplesRaw) > 200 {
			samplesRaw = samplesRaw[:200]
		}
		var h Histogram
		var maxSample time.Duration
		for _, s := range samplesRaw {
			d := time.Duration(s)
			h.Observe(d)
			if d > maxSample {
				maxSample = d
			}
		}
		prev := time.Duration(0)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
			v := h.Quantile(q)
			if v < prev {
				return false // not monotone
			}
			prev = v
		}
		// The 100th percentile bound must cover the max sample.
		return h.Quantile(1.0) >= maxSample || h.Quantile(1.0) == h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestL1Shape compares the eager drop's max op latency with the
// incremental mode's. At scale 4 the eager mode frees an 80000-node chain in
// one operation, a pause several times the few-ms host stalls that can land
// in either mode's max; at scale 1 (20000 nodes, ~6 ms) a stall alone could
// flip the comparison.
func TestL1Shape(t *testing.T) {
	tab := RunL1(EngineLocking, 4)
	if len(tab.Rows) != 2 {
		t.Fatalf("L1 rows = %d, want 2:\n%s", len(tab.Rows), tab)
	}
	eagerMax, err := time.ParseDuration(cell(t, tab, 0, 6))
	if err != nil {
		t.Fatalf("bad eager max %q", cell(t, tab, 0, 6))
	}
	incrMax, err := time.ParseDuration(cell(t, tab, 1, 6))
	if err != nil {
		t.Fatalf("bad incremental max %q", cell(t, tab, 1, 6))
	}
	if incrMax >= eagerMax {
		t.Errorf("incremental max latency %v not below eager %v:\n%s", incrMax, eagerMax, tab)
	}
}
