package hist

import (
	"fmt"
	"time"
)

// Duration is a log-scale latency histogram over time.Durations: bucket i
// covers durations in [2^i, 2^(i+1)) nanoseconds (bucket 0 additionally
// holds 0ns). It is not safe for concurrent use; give each worker its own
// and Merge. The workload harness aliases its Histogram to this type.
type Duration struct {
	h Histogram
}

// Observe records one duration. Negative durations are clamped to 0.
func (d *Duration) Observe(x time.Duration) { d.h.Observe(int64(x)) }

// BucketFor returns the bucket index Observe(x) increments; exported so
// tests can pin the documented bucket bounds exactly.
func (d *Duration) BucketFor(x time.Duration) int {
	if x < 0 {
		x = 0
	}
	return BucketOf(int64(x))
}

// Merge adds other's samples into d.
func (d *Duration) Merge(other *Duration) { d.h.Merge(&other.h) }

// Count returns the number of samples.
func (d *Duration) Count() int64 { return d.h.Count() }

// Max returns the largest observed duration.
func (d *Duration) Max() time.Duration { return time.Duration(d.h.Max()) }

// Sum returns the sum of all observed durations.
func (d *Duration) Sum() time.Duration { return time.Duration(d.h.Sum()) }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the top
// of the bucket containing it.
func (d *Duration) Quantile(q float64) time.Duration {
	return time.Duration(d.h.Quantile(q))
}

// Summary returns the p50/p99/max digest in nanoseconds.
func (d *Duration) Summary() Summary { return d.h.Summary() }

// String summarizes the distribution.
func (d *Duration) String() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v p999=%v max=%v",
		d.Count(), d.Quantile(0.50), d.Quantile(0.99), d.Quantile(0.999), d.Max())
}
