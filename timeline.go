package lfrc

import (
	"io"
	"iter"
	"time"

	"lfrc/internal/contend"
	"lfrc/internal/obs"
	"lfrc/internal/timeline"
)

// TimelineSample is one interval of the continuous telemetry timeline:
// per-interval deltas of the heap/RC/reclaim/degradation counters plus
// instantaneous gauges, latency quantiles, and the contention top-K. See the
// internal timeline.Sample field docs for precise semantics.
type TimelineSample = timeline.Sample

// TimelineStats is the timeline sampler's own accounting (cadence, ring
// occupancy, wraparound drops).
type TimelineStats = timeline.Stats

// TimelineOptions configures the telemetry timeline (WithTimeline).
type TimelineOptions struct {
	// Interval is the capture cadence; 0 selects the 100ms default.
	Interval time.Duration

	// Slots is the ring capacity, rounded up to a power of two (minimum
	// 8); 0 selects the 512-slot default (~51s at the default cadence).
	Slots int

	// Manual suppresses the background capture goroutine; samples are
	// taken only by explicit CaptureTimelineSample calls. Benchmarks and
	// deterministic tests use it.
	Manual bool
}

// WithTimeline enables the continuous telemetry timeline: a background
// sampler that every interval captures a delta snapshot of every counter the
// system already maintains — heap and RC stripes, per-shard allocation,
// zombie-stack depth, degradation counters, fault firings, the
// contention top-K, and observer latency quantiles — into a fixed-size
// lock-free ring. Capture is read-only against the existing counters and
// allocates nothing, so instrumented operations pay nothing new. Read the
// series back with System.Timeline, System.TimelineStats, the
// /debug/lfrc/timeline.json and .csv endpoints, or the lfrc_timeline_* meta
// metrics; watch it live with cmd/lfrctop. Call System.Close to stop the
// sampler.
func WithTimeline(o TimelineOptions) Option {
	return optionFunc(func(c *config) {
		c.timeline = true
		c.timelineOpts = o
	})
}

// newTimeline builds (and unless Manual, starts) the system's sampler.
// Called once from New after every subsystem the capture closure reads is in
// place.
func (s *System) newTimeline(o TimelineOptions) {
	opts := []timeline.Option{
		timeline.WithInterval(o.Interval),
		timeline.WithSlots(o.Slots),
		timeline.WithRoleNames(func(id uint8) string { return contend.Role(id).String() }),
	}
	if s.wd != nil {
		opts = append(opts, timeline.WithOnSample(s.observeHealth))
	}
	s.tl = timeline.New(s.captureTimeline, opts...)
	if !o.Manual {
		s.tl.Start()
	}
}

// p50p99 is the quantile set the capture path digests latency histograms to
// (package-level so the capture closure allocates nothing per interval).
var p50p99 = []float64{0.5, 0.99}

// captureTimeline fills one cumulative sample from the system's counters. It
// is the timeline's capture callback: strictly read-only, allocation-free,
// and never blocking (every source below is an atomic-load snapshot).
func (s *System) captureTimeline(sm *timeline.Sample) {
	hs := s.heap.Stats()
	sm.HeapAllocs = hs.Allocs
	sm.HeapFrees = hs.Frees
	sm.HeapRecycles = hs.Recycles
	sm.HeapLiveObjects = hs.LiveObjects
	sm.HeapLiveWords = hs.LiveWords
	sm.HeapHighWater = hs.HighWater

	rs := s.rc.Stats()
	sm.RCLoads = rs.Loads
	sm.RCLoadRetries = rs.LoadRetries
	sm.RCStores = rs.Stores
	sm.RCCopies = rs.Copies
	sm.RCCAS = rs.CASOps
	sm.RCDCAS = rs.DCASOps
	sm.RCDestroys = rs.Destroys
	sm.RCZombiePushes = rs.ZombiePushes

	sm.AllocGlobalFree = s.heap.GlobalFreeListed()
	sm.Shards = int64(s.heap.ShardAllocsInto(sm.ShardAllocs[:]))

	rst := s.rc.Reclaimer().Stats()
	sm.Zombies = rst.Pending
	sm.ReclaimRetired = rst.Retired
	sm.ReclaimFreed = rst.Freed
	sm.ReclaimPending = rst.Pending

	sm.DegRetries = s.deg.retries.Load()
	sm.DegRecoveries = s.deg.recoveries.Load()
	sm.DegExhaustions = s.deg.exhaustions.Load()
	sm.DegZombiesDrained = s.deg.zombiesDrained.Load()

	if s.fj != nil {
		sm.FaultInjected = s.fj.Fires()
	}
	if s.obs != nil {
		sm.ObsRecorded = s.obs.Recorded()
		var q [2]int64
		if s.obs.KindLatencyQuantiles(obs.KindLoad, p50p99, q[:]) > 0 {
			sm.LatLoadP50, sm.LatLoadP99 = q[0], q[1]
		}
		if s.obs.KindLatencyQuantiles(obs.KindStore, p50p99, q[:]) > 0 {
			sm.LatStoreP50, sm.LatStoreP99 = q[0], q[1]
		}
		if s.obs.RetryQuantiles(p50p99[1:], q[:1]) > 0 {
			sm.RetryP99 = q[0]
		}
	}
	if s.ct != nil {
		var top [timeline.TopK]contend.HotSample
		s.ct.TopInto(top[:])
		for i, h := range top {
			sm.Hot[i] = timeline.HotCell{
				Addr:     h.Addr,
				RoleID:   h.Role,
				Hot:      h.Hot,
				Failures: h.Failures,
			}
		}
	}
}

// Timeline iterates the retained telemetry samples, oldest first. The
// iteration walks a consistent snapshot taken when it starts; samples
// captured during the walk do not appear. Without WithTimeline the sequence
// is empty.
func (s *System) Timeline() iter.Seq[TimelineSample] {
	return func(yield func(TimelineSample) bool) {
		for _, sm := range s.tl.Snapshot() {
			if !yield(sm) {
				return
			}
		}
	}
}

// TimelineStats reports the sampler's accounting: cadence, ring capacity and
// occupancy, and how many samples wraparound has dropped. Without
// WithTimeline every field is zero.
func (s *System) TimelineStats() TimelineStats { return s.tl.Stats() }

// CaptureTimelineSample takes one timeline sample immediately, independent of
// the background cadence (the only capture source under
// TimelineOptions.Manual). Without WithTimeline it is a no-op.
func (s *System) CaptureTimelineSample() { s.tl.CaptureNow() }

// WriteTimelineJSON writes the schema-versioned timeline document (the same
// bytes served on /debug/lfrc/timeline.json). Without WithTimeline it writes
// a valid document with Enabled false.
func (s *System) WriteTimelineJSON(w io.Writer) error { return s.tl.WriteJSON(w) }

// WriteTimelineCSV writes the retained samples as CSV (the same bytes served
// on /debug/lfrc/timeline.csv). Without WithTimeline it writes only the
// header row.
func (s *System) WriteTimelineCSV(w io.Writer) error { return s.tl.WriteCSV(w) }
