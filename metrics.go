package lfrc

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"

	"lfrc/internal/hist"
	"lfrc/internal/obs"
)

// WriteMetrics writes the system's current counters in the Prometheus text
// exposition format: LFRC operation counters, heap gauges and corruption
// detectors, the deferred-reclamation backlog, and — when the flight recorder
// is enabled — the retry distribution and per-operation latency histograms.
func (s *System) WriteMetrics(w io.Writer) {
	st := s.Stats()

	writeHeader(w, "lfrc_ops_total", "counter", "LFRC operations by kind.")
	writeLabeled(w, "lfrc_ops_total", "op", "load", st.RC.Loads)
	writeLabeled(w, "lfrc_ops_total", "op", "store", st.RC.Stores)
	writeLabeled(w, "lfrc_ops_total", "op", "copy", st.RC.Copies)
	writeLabeled(w, "lfrc_ops_total", "op", "cas", st.RC.CASOps)
	writeLabeled(w, "lfrc_ops_total", "op", "dcas", st.RC.DCASOps)
	writeLabeled(w, "lfrc_ops_total", "op", "destroy", st.RC.Destroys)

	writeHeader(w, "lfrc_load_retries_total", "counter", "LFRCLoad DCAS retries.")
	writeScalar(w, "lfrc_load_retries_total", st.RC.LoadRetries)

	writeHeader(w, "lfrc_rc_strategy", "gauge", "Reference-count strategy in effect (always 1; the label carries the name).")
	writeLabeled(w, "lfrc_rc_strategy", "strategy", st.RCStrategy, 1)
	writeHeader(w, "lfrc_rc_weight_refills_total", "counter", "Split-strategy stash refills: Loads that fell back to the Figure-2-shaped DCAS because a link's external count ran dry (always 0 under figure2).")
	writeLabeled(w, "lfrc_rc_weight_refills_total", "strategy", st.RCStrategy, st.RC.WeightRefills)
	writeHeader(w, "lfrc_rc_ext_merges_total", "counter", "Split-strategy external-count merges: unlinked pointers whose remaining stash was folded back into the object's count word (always 0 under figure2).")
	writeLabeled(w, "lfrc_rc_ext_merges_total", "strategy", st.RCStrategy, st.RC.ExtMerges)

	writeHeader(w, "lfrc_heap_allocs_total", "counter", "Objects allocated.")
	writeScalar(w, "lfrc_heap_allocs_total", st.Heap.Allocs)
	writeHeader(w, "lfrc_heap_frees_total", "counter", "Objects freed.")
	writeScalar(w, "lfrc_heap_frees_total", st.Heap.Frees)
	writeHeader(w, "lfrc_heap_recycles_total", "counter", "Allocations served from free lists.")
	writeScalar(w, "lfrc_heap_recycles_total", st.Heap.Recycles)
	writeHeader(w, "lfrc_heap_double_frees_total", "counter", "Double frees detected.")
	writeScalar(w, "lfrc_heap_double_frees_total", st.Heap.DoubleFrees)
	writeHeader(w, "lfrc_heap_corruptions_total", "counter", "Poison corruptions detected on recycle.")
	writeScalar(w, "lfrc_heap_corruptions_total", st.Heap.Corruptions)
	writeHeader(w, "lfrc_heap_alloc_failures_total", "counter", "Allocations refused (arena exhausted).")
	writeScalar(w, "lfrc_heap_alloc_failures_total", st.Heap.AllocFailures)

	writeHeader(w, "lfrc_heap_live_objects", "gauge", "Objects currently live.")
	writeScalar(w, "lfrc_heap_live_objects", st.Heap.LiveObjects)
	writeHeader(w, "lfrc_heap_live_words", "gauge", "Words currently live.")
	writeScalar(w, "lfrc_heap_live_words", st.Heap.LiveWords)
	writeHeader(w, "lfrc_heap_high_water_words", "gauge", "Arena high-water mark in words.")
	writeScalar(w, "lfrc_heap_high_water_words", st.Heap.HighWater)
	writeHeader(w, "lfrc_alloc_shards", "gauge", "Allocation shards.")
	writeScalar(w, "lfrc_alloc_shards", int64(st.Alloc.Shards))
	writeHeader(w, "lfrc_alloc_global_free_listed", "gauge", "Slots on the global overflow free lists.")
	writeScalar(w, "lfrc_alloc_global_free_listed", st.Alloc.GlobalFreeListed)

	writeHeader(w, "lfrc_zombie_backlog", "gauge", "Objects awaiting deferred reclamation.")
	writeScalar(w, "lfrc_zombie_backlog", st.Zombies)

	writeHeader(w, "lfrc_reclaim_retired_total", "counter", "Count-zero objects handed to the reclaimer.")
	writeLabeled(w, "lfrc_reclaim_retired_total", "backend", st.Reclaim.Backend, st.Reclaim.Retired)
	writeHeader(w, "lfrc_reclaim_freed_total", "counter", "Objects freed by the reclaimer (including cascaded descendants).")
	writeLabeled(w, "lfrc_reclaim_freed_total", "backend", st.Reclaim.Backend, st.Reclaim.Freed)
	writeHeader(w, "lfrc_reclaim_parked_total", "counter", "Objects parked on the zombie stack.")
	writeLabeled(w, "lfrc_reclaim_parked_total", "backend", st.Reclaim.Backend, st.Reclaim.Parked)
	writeHeader(w, "lfrc_reclaim_pending", "gauge", "Zombie-stack backlog awaiting deferred reclamation.")
	writeLabeled(w, "lfrc_reclaim_pending", "backend", st.Reclaim.Backend, st.Reclaim.Pending)
	writeHeader(w, "lfrc_reclaim_drains_total", "counter", "Explicit zombie-stack drain calls.")
	writeLabeled(w, "lfrc_reclaim_drains_total", "backend", st.Reclaim.Backend, st.Reclaim.Drains)

	writeHeader(w, "lfrc_degraded_retries_total", "counter", "Heap-pressure degraded-mode retry attempts.")
	writeScalar(w, "lfrc_degraded_retries_total", st.Degraded.Retries)
	writeHeader(w, "lfrc_degraded_recoveries_total", "counter", "Operations that recovered on a degraded-mode retry.")
	writeScalar(w, "lfrc_degraded_recoveries_total", st.Degraded.Recoveries)
	writeHeader(w, "lfrc_degraded_exhaustions_total", "counter", "Operations that failed even after the full heap-pressure policy.")
	writeScalar(w, "lfrc_degraded_exhaustions_total", st.Degraded.Exhaustions)
	writeHeader(w, "lfrc_degraded_zombies_drained_total", "counter", "Zombie objects reclaimed by degraded-mode drains.")
	writeScalar(w, "lfrc_degraded_zombies_drained_total", st.Degraded.ZombiesDrained)

	if s.tl != nil {
		writeHeader(w, "lfrc_timeline_interval_ns", "gauge", "Telemetry timeline capture cadence in nanoseconds.")
		writeScalar(w, "lfrc_timeline_interval_ns", st.Timeline.IntervalNS)
		writeHeader(w, "lfrc_timeline_slots", "gauge", "Telemetry timeline ring capacity.")
		writeScalar(w, "lfrc_timeline_slots", int64(st.Timeline.Slots))
		writeHeader(w, "lfrc_timeline_captures_total", "counter", "Timeline samples captured since creation.")
		writeScalar(w, "lfrc_timeline_captures_total", int64(st.Timeline.Captures))
		writeHeader(w, "lfrc_timeline_retained", "gauge", "Timeline samples currently held in the ring.")
		writeScalar(w, "lfrc_timeline_retained", int64(st.Timeline.Retained))
		writeHeader(w, "lfrc_timeline_dropped_total", "counter", "Timeline samples discarded by ring wraparound.")
		writeScalar(w, "lfrc_timeline_dropped_total", int64(st.Timeline.Dropped))
	}

	if s.wd != nil {
		writeHeader(w, "lfrc_watchdog_rules", "gauge", "Health rules the watchdog evaluates per timeline tick.")
		writeScalar(w, "lfrc_watchdog_rules", int64(st.Watchdog.Rules))
		writeHeader(w, "lfrc_watchdog_evals_total", "counter", "Watchdog rule-set evaluations (one per timeline tick).")
		writeScalar(w, "lfrc_watchdog_evals_total", int64(st.Watchdog.Evals))
		writeHeader(w, "lfrc_watchdog_census_probes_total", "counter", "Watchdog ticks that ran the sampled census cross-check.")
		writeScalar(w, "lfrc_watchdog_census_probes_total", int64(st.Watchdog.CensusProbes))
		writeHeader(w, "lfrc_watchdog_firings_total", "counter", "Rule firings, including ones coalesced into open incidents.")
		writeScalar(w, "lfrc_watchdog_firings_total", int64(st.Watchdog.Firings))
		writeHeader(w, "lfrc_watchdog_incidents_total", "counter", "Incident records minted (rate-limited by the per-rule cooldown).")
		writeScalar(w, "lfrc_watchdog_incidents_total", int64(st.Watchdog.Incidents))
		writeHeader(w, "lfrc_watchdog_coalesced_total", "counter", "Rule firings absorbed into an open incident by the cooldown.")
		writeScalar(w, "lfrc_watchdog_coalesced_total", int64(st.Watchdog.Coalesced))
		writeHeader(w, "lfrc_watchdog_dropped_total", "counter", "Incident records evicted by the retention bound.")
		writeScalar(w, "lfrc_watchdog_dropped_total", int64(st.Watchdog.Dropped))
		writeHeader(w, "lfrc_watchdog_retained_incidents", "gauge", "Incident records currently retained, by severity.")
		var bySev [4]int64
		for _, inc := range s.Incidents() {
			if int(inc.Level) < len(bySev) {
				bySev[inc.Level]++
			}
		}
		writeLabeled(w, "lfrc_watchdog_retained_incidents", "severity", "info", bySev[1])
		writeLabeled(w, "lfrc_watchdog_retained_incidents", "severity", "warn", bySev[2])
		writeLabeled(w, "lfrc_watchdog_retained_incidents", "severity", "critical", bySev[3])
		writeHeader(w, "lfrc_watchdog_last_incident_ts", "gauge", "Sample timestamp of the most recent rule firing (0 = never).")
		writeScalar(w, "lfrc_watchdog_last_incident_ts", st.Watchdog.LastIncidentTS)
	}

	if st.Fault.Enabled {
		writeHeader(w, "lfrc_fault_attempts_total", "counter", "Attempts seen at armed fault-injection points.")
		for _, p := range st.Fault.Points {
			writeLabeled(w, "lfrc_fault_attempts_total", "point", p.Name, int64(p.Attempts))
		}
		writeHeader(w, "lfrc_fault_injected_total", "counter", "Faults injected, by point.")
		for _, p := range st.Fault.Points {
			writeLabeled(w, "lfrc_fault_injected_total", "point", p.Name, int64(p.Fires))
		}
	}

	// Graph-census series: a fresh snapshot per scrape when the diagnosis
	// layer is on, else the most recent explicit System.Census, so a census
	// once taken keeps reporting. No census yet means no series.
	var cs *CensusSnapshot
	if st.Lifecycle.Enabled {
		cs = s.Census()
	} else {
		cs = s.lastCensus.Load()
	}
	if cs != nil {
		writeHeader(w, "lfrc_census_live_objects", "gauge", "Live objects seen by the last object-graph census.")
		writeScalar(w, "lfrc_census_live_objects", cs.LiveObjects)
		writeHeader(w, "lfrc_census_objects", "gauge", "Census objects by reachability class.")
		writeLabeled(w, "lfrc_census_objects", "class", "reachable", cs.Reachable.Objects)
		writeLabeled(w, "lfrc_census_objects", "class", "unreachable", cs.Unreachable.Objects)
		writeLabeled(w, "lfrc_census_objects", "class", "limbo", cs.Limbo.Objects)
		writeHeader(w, "lfrc_census_bytes", "gauge", "Census bytes by reachability class.")
		writeLabeled(w, "lfrc_census_bytes", "class", "reachable", cs.Reachable.Bytes)
		writeLabeled(w, "lfrc_census_bytes", "class", "unreachable", cs.Unreachable.Bytes)
		writeLabeled(w, "lfrc_census_bytes", "class", "limbo", cs.Limbo.Bytes)
		writeHeader(w, "lfrc_census_edges", "gauge", "Pointer edges between live objects in the last census.")
		writeScalar(w, "lfrc_census_edges", cs.Edges)
		writeHeader(w, "lfrc_census_dangling_edges", "gauge", "Pointer fields naming a non-live target (expected 0 at quiescence).")
		writeScalar(w, "lfrc_census_dangling_edges", cs.DanglingEdges)
		writeHeader(w, "lfrc_census_cycles", "gauge", "Unreachable-but-counted cycles (garbage LFRC can never free).")
		writeScalar(w, "lfrc_census_cycles", cs.CycleCount)
		writeHeader(w, "lfrc_census_cycle_objects", "gauge", "Objects that are members of census-detected cycles.")
		writeScalar(w, "lfrc_census_cycle_objects", cs.CycleObjects)
		writeHeader(w, "lfrc_census_cycle_bytes", "gauge", "Bytes held by census-detected cycle members.")
		writeScalar(w, "lfrc_census_cycle_bytes", cs.CycleBytes)
		writeHeader(w, "lfrc_census_rc_mismatches", "gauge", "Objects whose stored count disagrees with actual in-edges plus roots.")
		writeScalar(w, "lfrc_census_rc_mismatches", cs.RCMismatchCount)
		writeHeader(w, "lfrc_census_wall_ns", "gauge", "Wall time the last census took, in nanoseconds.")
		writeScalar(w, "lfrc_census_wall_ns", cs.WallNS)
	}

	if s.obs == nil {
		return
	}
	writeHeader(w, "lfrc_trace_sample_every", "gauge", "Flight recorder sampling interval (0 = disabled).")
	writeScalar(w, "lfrc_trace_sample_every", int64(s.obs.SampleEvery()))
	writeHeader(w, "lfrc_trace_recorded_total", "counter", "Events recorded by the flight recorder.")
	writeScalar(w, "lfrc_trace_recorded_total", int64(s.obs.Recorded()))
	writeHeader(w, "lfrc_postmortems_total", "counter", "Violation postmortems captured (including ones retention has dropped).")
	writeScalar(w, "lfrc_postmortems_total", int64(s.obs.PostmortemCount()))

	writeHeader(w, "lfrc_op_retries", "histogram", "Retries per sampled operation.")
	writeHist(w, "lfrc_op_retries", "", s.obs.RetrySnapshot())

	lat := s.obs.LatencySnapshots()
	kinds := make([]obs.Kind, 0, len(lat))
	for k := range lat {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	writeHeader(w, "lfrc_op_latency_ns", "histogram", "Sampled operation latency in nanoseconds, by kind.")
	for _, k := range kinds {
		writeHist(w, "lfrc_op_latency_ns", fmt.Sprintf("op=%q", k), lat[k])
	}

	if s.ct != nil {
		writeContentionMetrics(w, s.ct.Snapshot())
	}

	if !st.Lifecycle.Enabled {
		return
	}
	writeHeader(w, "lfrc_lifecycle_sample_every", "gauge", "Lifecycle ledger object sampling interval (0 = installed but off).")
	writeScalar(w, "lfrc_lifecycle_sample_every", int64(st.Lifecycle.SampleEvery))
	writeHeader(w, "lfrc_lifecycle_tracked", "gauge", "Objects currently tracked by the lifecycle ledger.")
	writeScalar(w, "lfrc_lifecycle_tracked", st.Lifecycle.Tracked)
	writeHeader(w, "lfrc_lifecycle_sampled_total", "counter", "Objects ever selected for lifecycle tracking.")
	writeScalar(w, "lfrc_lifecycle_sampled_total", int64(st.Lifecycle.SampledObjects))
	writeHeader(w, "lfrc_audit_passes_total", "counter", "Lifecycle invariant-auditor passes.")
	writeScalar(w, "lfrc_audit_passes_total", int64(st.Lifecycle.AuditPasses))
	writeHeader(w, "lfrc_audit_violations_total", "counter", "Lifecycle invariant violations flagged.")
	writeScalar(w, "lfrc_audit_violations_total", int64(st.Lifecycle.Violations))
}

// writeContentionMetrics renders the contention observatory: totals
// aggregated by (op, role) — cells come and go, op/role series are stable —
// plus the decaying top-K heatmap as per-cell gauges for dashboards that want
// "what is hot right now".
func writeContentionMetrics(w io.Writer, rep ContentionReport) {
	type orKey struct{ op, role string }
	type orAgg struct{ attempts, failures, ops, retries, wasted int64 }
	agg := map[orKey]*orAgg{}
	keys := []orKey{}
	for _, c := range rep.Cells {
		k := orKey{c.Op, c.Role}
		a := agg[k]
		if a == nil {
			a = &orAgg{}
			agg[k] = a
			keys = append(keys, k)
		}
		a.attempts += c.Attempts
		a.failures += c.Failures
		a.ops += c.Ops
		a.retries += c.RetrySum
		a.wasted += c.WastedNS
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].op != keys[j].op {
			return keys[i].op < keys[j].op
		}
		return keys[i].role < keys[j].role
	})

	emit := func(name, typ, help string, get func(*orAgg) int64) {
		writeHeader(w, name, typ, help)
		for _, k := range keys {
			writeLabels(w, name, fmt.Sprintf("op=%q,role=%q", k.op, k.role), get(agg[k]))
		}
	}
	emit("lfrc_contention_attempts_total", "counter",
		"Contended DCAS/CAS attempts by operation and cell role (uncontended traffic is not recorded).",
		func(a *orAgg) int64 { return a.attempts })
	emit("lfrc_contention_failures_total", "counter",
		"Failed DCAS/CAS attempts attributed to the cell that moved, by operation and cell role.",
		func(a *orAgg) int64 { return a.failures })
	emit("lfrc_contention_ops_total", "counter",
		"Completed contended operations (retries > 0) by operation and resolving cell role.",
		func(a *orAgg) int64 { return a.ops })
	emit("lfrc_contention_retries_total", "counter",
		"Retry-chain length summed over completed contended operations.",
		func(a *orAgg) int64 { return a.retries })
	emit("lfrc_contention_wasted_ns_total", "counter",
		"Estimated nanoseconds burned in failed attempts (sampled, scaled by lfrc_contention_op_scale).",
		func(a *orAgg) int64 { return a.wasted })

	writeHeader(w, "lfrc_contention_hot_cell", "gauge",
		"Decaying activity score of the hottest cells (top-K heatmap).")
	for _, h := range rep.Heatmap {
		writeLabels(w, "lfrc_contention_hot_cell",
			fmt.Sprintf("cell=\"%#x\",role=%q", h.Addr, h.Role), h.Hot)
	}
	writeHeader(w, "lfrc_contention_dropped_total", "counter",
		"Contention records lost because a stripe's hot-cell table was full.")
	writeScalar(w, "lfrc_contention_dropped_total", rep.Dropped)
	writeHeader(w, "lfrc_contention_op_scale", "gauge",
		"Scaling factor applied to sampled wasted-ns estimates (the recorder's op-sampling interval).")
	writeScalar(w, "lfrc_contention_op_scale", int64(rep.OpScale))
}

// MetricsHandler serves WriteMetrics over HTTP — the system's /metrics
// endpoint, scrapeable by Prometheus.
func (s *System) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
}

func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeScalar(w io.Writer, name string, v int64) {
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func writeLabeled(w io.Writer, name, label, value string, v int64) {
	fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, value, v)
}

// writeLabels writes one sample with a preformatted label list (no braces).
func writeLabels(w io.Writer, name, labels string, v int64) {
	fmt.Fprintf(w, "%s{%s} %d\n", name, labels, v)
}

// writeHist writes one Prometheus histogram series (cumulative le buckets,
// +Inf, _sum, _count). labels is a preformatted label list without braces
// (may be empty).
func writeHist(w io.Writer, name, labels string, h hist.Histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for _, b := range h.Buckets() {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%d\"} %d\n", name, labels, sep, b.UpperBound, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count())
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum(), name, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %d\n%s_count{%s} %d\n", name, labels, h.Sum(), name, labels, h.Count())
	}
}

// debugSystem is the system the expvar "lfrc" variable reports on; it is set
// by NewDebugMux (last mux wins). expvar allows publishing a name only once
// per process, so the variable indirects through this pointer.
var (
	debugSystem    atomic.Pointer[System]
	publishExpvars sync.Once
)

// NewDebugMux builds the debug/ops HTTP mux for a System. /debug/lfrc/ is an
// index page listing every endpoint; the roster:
//
//	/metrics               Prometheus text exposition (MetricsHandler)
//	/debug/vars            expvar JSON, including an "lfrc" variable with Stats
//	/debug/lfrc/stats      Stats() as one JSON object
//	/debug/lfrc/trace      Trace() as one JSON object (flight recorder dump)
//	/debug/lfrc/trace.json Chrome trace_event export (open in Perfetto)
//	/debug/lfrc/timeline.json
//	                       schema-versioned telemetry timeline (WithTimeline)
//	/debug/lfrc/timeline.csv
//	                       the same series as CSV for spreadsheets/gnuplot
//	/debug/lfrc/contention human-readable contention report (ObservabilityOptions.Contention)
//	/debug/lfrc/contention.pb.gz
//	                       pprof-compatible contention profile; feed it to
//	                       `go tool pprof` to rank cells by wasted-ns
//	/debug/lfrc/census.json
//	                       whole-heap object-graph census: reachability,
//	                       cycle leaks, rc mismatches, per-type attribution
//	/debug/lfrc/census.pb.gz
//	                       the census in pprof heap-profile shape; feed it
//	                       to `go tool pprof` to rank leak sources
//	/debug/lfrc/census.dot Graphviz DOT render of the object graph (small
//	                       heaps; ?max=N raises the node cap)
//	/debug/lfrc/incidents.json
//	                       health-watchdog incidents with evidence windows
//	/debug/lfrc/bundle.tar.gz
//	                       on-demand diagnostic bundle (see WriteBundle);
//	                       feed it to cmd/lfrcdoctor
//	/debug/pprof/...       the standard Go profiler endpoints
//
// Every lfrc endpoint is read-only: non-GET/HEAD methods answer 405 (the
// pprof subtree keeps its own method handling).
//
// get is called per request so callers can swap the live system (benchmark
// harnesses rebuild systems per phase); use func() *System { return s } for a
// fixed one. A nil current system answers 503.
func NewDebugMux(get func() *System) *http.ServeMux {
	publishExpvars.Do(func() {
		expvar.Publish("lfrc", expvar.Func(func() any {
			s := debugSystem.Load()
			if s == nil {
				return nil
			}
			return s.Stats()
		}))
	})
	if s := get(); s != nil {
		debugSystem.Store(s)
	}

	// Every published endpoint is a read: anything but GET/HEAD answers 405
	// with an Allow header. (The pprof subtree is exempt — pprof's symbol
	// endpoint legitimately accepts POST.)
	readOnly := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet && r.Method != http.MethodHead {
				w.Header().Set("Allow", "GET, HEAD")
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			h.ServeHTTP(w, r)
		})
	}

	withSys := func(fn func(s *System, w http.ResponseWriter, r *http.Request)) http.Handler {
		return readOnly(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s := get()
			if s == nil {
				http.Error(w, "no live lfrc system", http.StatusServiceUnavailable)
				return
			}
			debugSystem.Store(s)
			fn(s, w, r)
		}))
	}

	// endpoints is the single source of truth: every entry is registered on
	// the mux and listed, with its description, by the index page at
	// /debug/lfrc/.
	type endpoint struct {
		path    string
		desc    string
		handler http.Handler
	}
	endpoints := []endpoint{
		{"/metrics", "Prometheus text exposition of every lfrc_* series",
			withSys(func(s *System, w http.ResponseWriter, r *http.Request) {
				s.MetricsHandler().ServeHTTP(w, r)
			})},
		{"/debug/lfrc/stats", "unified Stats() snapshot as one JSON object",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				enc.Encode(s.Stats())
			})},
		{"/debug/lfrc/trace", "flight recorder dump (events, latency digests, postmortems) as JSON",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				enc.Encode(s.Trace())
			})},
		{"/debug/lfrc/trace.json", "Chrome trace_event export; open in Perfetto or chrome://tracing",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Content-Disposition", `attachment; filename="lfrc-trace.json"`)
				if err := s.WriteChromeTrace(w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
			})},
		{"/debug/lfrc/timeline.json", "schema-versioned telemetry timeline (WithTimeline)",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if err := s.WriteTimelineJSON(w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
			})},
		{"/debug/lfrc/timeline.csv", "the telemetry timeline as CSV for spreadsheets/gnuplot",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/csv; charset=utf-8")
				if err := s.WriteTimelineCSV(w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
			})},
		{"/debug/lfrc/contention", "human-readable contention report (ObservabilityOptions.Contention)",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				s.WriteContentionReport(w)
			})},
		{"/debug/lfrc/contention.pb.gz", "pprof-compatible contention profile; `go tool pprof -top` ranks cells by wasted-ns",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Header().Set("Content-Disposition", `attachment; filename="lfrc-contention.pb.gz"`)
				if err := s.WriteContentionProfile(w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
			})},
		{"/debug/lfrc/census.json", "whole-heap object-graph census: reachability, cycle leaks, rc mismatches, per-type retained sizes",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if err := s.WriteCensusJSON(w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
			})},
		{"/debug/lfrc/census.pb.gz", "the census in pprof heap-profile shape; `go tool pprof -top` ranks leak sources",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Header().Set("Content-Disposition", `attachment; filename="lfrc-census.pb.gz"`)
				if err := s.WriteCensusProfile(w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
			})},
		{"/debug/lfrc/census.dot", "Graphviz DOT render of the object graph (small heaps; ?max=N raises the node cap)",
			withSys(func(s *System, w http.ResponseWriter, r *http.Request) {
				maxNodes := 0
				if q := r.URL.Query().Get("max"); q != "" {
					fmt.Sscanf(q, "%d", &maxNodes)
				}
				w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
				if err := s.WriteCensusDOT(w, maxNodes); err != nil {
					http.Error(w, err.Error(), http.StatusUnprocessableEntity)
				}
			})},
		{"/debug/lfrc/incidents.json", "health-watchdog incidents: rules, firing counters, evidence windows (WithWatchdog)",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if err := s.WriteIncidentsJSON(w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
			})},
		{"/debug/lfrc/bundle.tar.gz", "diagnostic bundle: the whole observability stack as one black-box tar.gz for cmd/lfrcdoctor",
			withSys(func(s *System, w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/gzip")
				w.Header().Set("Content-Disposition", `attachment; filename="lfrc-bundle.tar.gz"`)
				if err := s.WriteBundle(w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
			})},
		{"/debug/vars", "expvar JSON, including an \"lfrc\" variable carrying Stats", readOnly(expvar.Handler())},
		{"/debug/pprof/", "standard Go profiler endpoints (cmdline, profile, symbol, trace, ...)", http.HandlerFunc(pprof.Index)},
	}

	mux := http.NewServeMux()
	for _, ep := range endpoints {
		if ep.path == "/debug/pprof/" {
			continue // registered below with its sub-handlers
		}
		mux.Handle(ep.path, ep.handler)
	}
	// Index page. The "/debug/lfrc/" pattern is a subtree match, so answer
	// the directory itself and 404 anything unregistered beneath it.
	mux.HandleFunc("/debug/lfrc/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/lfrc/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<html><head><title>lfrc debug</title></head><body>\n<h1>lfrc debug endpoints</h1>\n<table>\n")
		for _, ep := range endpoints {
			fmt.Fprintf(w, "<tr><td><a href=%q>%s</a></td><td>%s</td></tr>\n",
				ep.path, ep.path, ep.desc)
		}
		fmt.Fprintf(w, "</table></body></html>\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
