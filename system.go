package lfrc

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lfrc/internal/census"
	"lfrc/internal/contend"
	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/dlist"
	"lfrc/internal/fault"
	"lfrc/internal/gctrace"
	"lfrc/internal/lifecycle"
	"lfrc/internal/mem"
	"lfrc/internal/msqueue"
	"lfrc/internal/obs"
	"lfrc/internal/snark"
	"lfrc/internal/stackrc"
	"lfrc/internal/timeline"
	"lfrc/internal/watchdog"
)

// Value is the payload type carried by the structures.
type Value = uint64

// MaxValue is the largest storable payload: the two top cell bits belong to
// the software-MCAS engine and one more to the deque's claim marker.
const MaxValue Value = 1<<61 - 1

// Engine selects the DCAS substrate.
type Engine int

// Engines.
const (
	// EngineLocking simulates the hardware DCAS the paper assumes with an
	// address-striped lock table. Fast and simple; its lock-freedom is a
	// property of the modeled hardware, not the simulation.
	EngineLocking Engine = iota + 1

	// EngineMCAS is a genuinely lock-free software DCAS built from
	// single-word CAS (Harris, Fraser & Pratt, DISC 2002). Slower per
	// operation, but every step is implemented with commodity atomics.
	EngineMCAS
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineLocking:
		return "locking"
	case EngineMCAS:
		return "mcas"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Option configures a System.
type Option interface {
	apply(*config)
}

type config struct {
	engine         Engine
	rcStrategy     RCStrategy
	maxHeapWords   uint64
	destroyBudget  int
	allocShards    int
	observer       bool
	sampleEvery    int
	lifecycleEvery int
	auditEvery     time.Duration
	contention     bool
	faultPlan      string
	faultSeed      uint64
	pressure       HeapPressurePolicy
	timeline       bool
	timelineOpts   TimelineOptions
	watchdog       WatchdogOptions
	censusRoots    []func() []uint32
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithEngine selects the DCAS engine. The default is EngineLocking.
func WithEngine(e Engine) Option {
	return optionFunc(func(c *config) { c.engine = e })
}

// WithMaxHeapWords caps the simulated heap at n 64-bit words. The default
// is 64Mi words (512 MiB).
func WithMaxHeapWords(n uint64) Option {
	return optionFunc(func(c *config) { c.maxHeapWords = n })
}

// WithIncrementalDestroy bounds the reclamation work done by any single
// pointer-release to budget objects, deferring the remainder (the paper's §7
// suggestion for avoiding pauses when dropping large structures). Call
// System.DrainZombies from a maintenance loop to finish deferred work.
func WithIncrementalDestroy(budget int) Option {
	return optionFunc(func(c *config) { c.destroyBudget = budget })
}

// WithAllocShards sets how many shards the heap's allocator is striped
// across. The default is runtime.GOMAXPROCS at heap creation; values are
// clamped to [1, 64]. Pin it explicitly when benchmark runs must be
// comparable across machines.
func WithAllocShards(n int) Option {
	return optionFunc(func(c *config) { c.allocShards = n })
}

// System bundles a manual heap, a DCAS engine, the LFRC operations, and the
// backup tracing collector. All methods are safe for concurrent use unless
// noted otherwise.
type System struct {
	heap      *mem.Heap
	engine    dcas.Engine
	rc        *core.RC
	collector *gctrace.Collector
	obs       *obs.Recorder  // nil unless the flight recorder is on
	ct        *contend.Table // nil unless ObservabilityOptions.Contention

	// ledger and auditor are nil unless ObservabilityOptions.LifecycleEvery
	// or AuditEvery is set; every consumer below is nil-safe.
	ledger  *lifecycle.Ledger
	auditor *lifecycle.Auditor

	// fj is the fault injector; nil unless WithFaultPlan armed at least
	// one injection point. pressure and deg implement graceful heap-
	// pressure degradation (see WithHeapPressurePolicy).
	fj       *fault.Injector
	pressure HeapPressurePolicy
	deg      degradedCounters

	// tl is the telemetry timeline sampler; nil unless WithTimeline.
	// Every consumer is nil-safe.
	tl *timeline.Sampler

	// wd is the health watchdog engine riding the sampler's cadence; nil
	// unless the timeline is on and the watchdog not disabled. Every
	// consumer is nil-safe. wdTicks/wdProbeEvery pace the sampled census
	// probe (single writer: the sampler's capture path); bundleBusy keeps
	// incident-triggered bundle captures from overlapping.
	wd           *watchdog.Engine
	wdTicks      uint64
	wdProbeEvery int
	bundleBusy   atomic.Bool

	// faultPlan retains the WithFaultPlan source string for the diagnostic
	// bundle manifest (the injector itself keeps only the parsed form).
	faultPlan string

	// censusRoots are the caller-registered extra root sources (see
	// WithCensusRoots); lastCensus caches the most recent graph census so
	// /metrics can report it without re-walking the heap per scrape.
	censusRoots []func() []uint32
	lastCensus  atomic.Pointer[census.Snapshot]

	// Each structure family's heap types are registered lazily on first
	// use; a system that never creates a Queue never pays for (or exposes)
	// the queue's type table entries.
	snarkTypes typeReg[snark.Types]
	queueTypes typeReg[msqueue.Types]
	stackTypes typeReg[stackrc.Types]
	setTypes   typeReg[dlist.Types]
}

// typeReg lazily registers one structure family's heap types. The zero value
// is ready; get runs register exactly once per System and caches the result
// (including a registration error, which every subsequent constructor call
// then reports).
type typeReg[T any] struct {
	once sync.Once
	ts   T
	err  error
}

func (tr *typeReg[T]) get(h *mem.Heap, register func(*mem.Heap) (T, error)) (T, error) {
	tr.once.Do(func() { tr.ts, tr.err = register(h) })
	return tr.ts, tr.err
}

// New creates a System.
func New(opts ...Option) (*System, error) {
	cfg := config{
		engine:       EngineLocking,
		rcStrategy:   RCSplit,
		maxHeapWords: 64 << 20,
		sampleEvery:  -1,
		faultSeed:    1,
	}
	for _, o := range opts {
		o.apply(&cfg)
	}
	switch cfg.rcStrategy {
	case RCFigure2, RCSplit:
	default:
		return nil, fmt.Errorf("lfrc: unknown rc strategy %v", cfg.rcStrategy)
	}

	plan, err := fault.Parse(cfg.faultPlan)
	if err != nil {
		return nil, fmt.Errorf("lfrc: fault plan: %w", err)
	}
	fj := fault.NewInjector(plan, cfg.faultSeed)

	var rec *obs.Recorder
	if cfg.observer {
		var obsOpts []obs.Option
		if cfg.sampleEvery >= 0 {
			obsOpts = append(obsOpts, obs.WithSampleEvery(cfg.sampleEvery))
		}
		rec = obs.New(obsOpts...)
	}

	var ct *contend.Table
	if cfg.contention {
		ct = contend.New()
		// Sampled wasted-ns contributions are scaled by the recorder's op
		// sampling interval so the profile estimates un-sampled totals.
		if n := rec.SampleEvery(); n > 1 {
			ct.SetOpScale(n)
		}
		rec.SetAgg(ct)
	}

	var led *lifecycle.Ledger
	if cfg.lifecycleEvery > 0 {
		led = lifecycle.New(lifecycle.WithSampleEvery(cfg.lifecycleEvery - 1))
		// A sampling-off ledger can never claim an object, so it detaches
		// from the recorder entirely: "disabled" costs exactly the nil
		// sink check. Install before the recorder is shared: SetSink is
		// not synchronized.
		if cfg.lifecycleEvery > 1 {
			rec.SetSink(led)
		}
	}

	h := mem.NewHeap(
		mem.WithMaxWords(cfg.maxHeapWords),
		mem.WithAllocShards(cfg.allocShards),
		mem.WithObserver(rec),
		mem.WithFault(fj),
	)
	var e dcas.Engine
	switch cfg.engine {
	case EngineLocking:
		e = dcas.NewLocking(h)
	case EngineMCAS:
		e = dcas.NewMCAS(h)
	default:
		return nil, fmt.Errorf("lfrc: unknown engine %v", cfg.engine)
	}

	var rcOpts []core.Option
	rcOpts = append(rcOpts, core.WithStrategyKind(cfg.rcStrategy.kind()))
	if cfg.destroyBudget > 0 {
		rcOpts = append(rcOpts, core.WithIncrementalDestroy(cfg.destroyBudget))
	}
	rcOpts = append(rcOpts, core.WithObserver(rec))
	if ct != nil {
		rcOpts = append(rcOpts, core.WithContention(ct))
	}
	if fj != nil {
		rcOpts = append(rcOpts, core.WithFault(fj))
	}

	s := &System{
		heap:        h,
		engine:      e,
		rc:          core.New(h, e, rcOpts...),
		collector:   gctrace.New(h),
		obs:         rec,
		ct:          ct,
		ledger:      led,
		fj:          fj,
		pressure:    cfg.pressure,
		faultPlan:   cfg.faultPlan,
		censusRoots: cfg.censusRoots,
	}
	if led != nil {
		var audOpts []lifecycle.AuditOption
		if cfg.auditEvery > 0 {
			audOpts = append(audOpts, lifecycle.WithInterval(cfg.auditEvery))
		}
		s.auditor = lifecycle.NewAuditor(led, heapProbe{h, s.rc.SnapshotRead}, rec, audOpts...)
		if cfg.auditEvery > 0 {
			s.auditor.Start()
		}
	}
	if cfg.timeline {
		// Last: the capture closure reads every subsystem built above. The
		// watchdog comes first only because the sampler's on-sample hook
		// feeds it; it is always on with the timeline unless disabled.
		if !cfg.watchdog.Disabled {
			s.newWatchdog(cfg.watchdog)
		}
		s.newTimeline(cfg.timelineOpts)
	}
	return s, nil
}

// heapProbe adapts the heap to the auditor's Probe interface. It reads
// count cells with read, the RC's side-effect-free snapshot read, because
// the auditor runs beside mutators: a count cell an engine holds (locked or
// carrying a descriptor) must not read as a freed slot.
type heapProbe struct {
	h    *mem.Heap
	read func(mem.Addr) uint64
}

func (p heapProbe) RCOf(ref uint32) uint64 {
	r := mem.Ref(ref)
	if r == 0 || !p.h.InArena(r) {
		return 0
	}
	rc := p.read(p.h.RCAddr(r))
	if rc >= mem.Poison {
		// A poisoned rc cell means the slot is freed (or corrupted);
		// either way it is not a live stuck count.
		return 0
	}
	return rc
}

func (p heapProbe) Freed(ref uint32) bool {
	r := mem.Ref(ref)
	return r != 0 && p.h.InArena(r) && p.h.IsFreed(r)
}

func (p heapProbe) AdvanceEpoch() uint64 { return p.h.AdvanceEpoch() }

// Close stops the system's background machinery (the lifecycle auditor
// started by ObservabilityOptions.AuditEvery and the timeline sampler started by
// WithTimeline). It is safe to call on any System, multiple times; the
// system's data structures remain usable afterwards, and the timeline ring
// stays readable.
func (s *System) Close() {
	if s.auditor != nil {
		s.auditor.Stop()
	}
	s.tl.Stop()
}

// Trace is the flight recorder's dump: the surviving ring events in sequence
// order, per-operation latency digests, the retry distribution, and any
// captured postmortems.
type Trace = obs.Trace

// Trace dumps the flight recorder. Without the flight recorder it returns a zero
// Trace. The events are the newest survivors of fixed-size per-stripe rings;
// use it for flight-recorder style postmortems, not exhaustive logs.
func (s *System) Trace() Trace { return s.obs.Trace() }

// Postmortems returns the violation captures recorded so far: one entry per
// detected poison corruption (see mem's recycle-time check) or audit
// violation, each naming the offending ref and carrying the trailing flight
// events that touched it.
func (s *System) Postmortems() []obs.Postmortem { return s.obs.Postmortems() }

// ObjectTimeline is one sampled object's ledgered event chain: allocation,
// every rc-manipulating touch with before/after counts and goroutine
// attribution, zombie transit, and free. See ObservabilityOptions.LifecycleEvery. (The name
// System.Timeline belongs to the telemetry timeline — see WithTimeline.)
type ObjectTimeline = lifecycle.Timeline

// Violation is one invariant breach flagged by the lifecycle auditor,
// carrying the offending object's timeline. See ObservabilityOptions.AuditEvery.
type Violation = lifecycle.Violation

// ObjectTimeline returns the lifecycle timeline for ref — the live
// incarnation if the object is still tracked, else its most recent completed
// incarnation. Without the lifecycle ledger (or for unsampled objects) it
// reports false.
func (s *System) ObjectTimeline(ref uint32) (ObjectTimeline, bool) { return s.ledger.Timeline(ref) }

// AuditPass runs one lifecycle audit pass immediately and returns the
// violations newly flagged by it. It requires the lifecycle ledger (the
// auditor exists whenever the ledger does; ObservabilityOptions.AuditEvery
// additionally runs passes on a background interval) and returns nil without
// one.
func (s *System) AuditPass() []Violation {
	if s.auditor == nil {
		return nil
	}
	return s.auditor.RunPass()
}

// Violations returns the lifecycle violations flagged so far, oldest first
// (bounded retention; each was also captured as a postmortem when the
// flight recorder is enabled).
func (s *System) Violations() []Violation {
	if s.auditor == nil {
		return nil
	}
	return s.auditor.Violations()
}

// ContentionReport is the contention observatory's merged snapshot: every
// (cell, op) accumulator ranked by wasted work, plus the decaying top-K
// heatmap. See ObservabilityOptions.Contention.
type ContentionReport = contend.Report

// ContentionReport snapshots the contention observatory. Without
// ObservabilityOptions.Contention it returns an empty report.
func (s *System) ContentionReport() ContentionReport { return s.ct.Snapshot() }

// WriteContentionReport writes the human-readable contention report (the
// same text served on /debug/lfrc/contention).
func (s *System) WriteContentionReport(w io.Writer) { s.ct.WriteReport(w) }

// WriteContentionProfile writes the contention profile as a gzipped
// pprof-compatible protobuf (the same bytes served on
// /debug/lfrc/contention.pb.gz): samples are (cell, op) pairs weighted by
// attributed failures and wasted nanoseconds, so
//
//	go tool pprof -top contention.pb.gz
//
// ranks the hot cells directly.
func (s *System) WriteContentionProfile(w io.Writer) error { return s.ct.WriteProfile(w) }

// WriteChromeTrace exports the flight recorder's trace and the lifecycle
// ledger's timelines as Chrome trace_event JSON, loadable in Perfetto or
// chrome://tracing: one track per goroutine, instants for flight-ring
// events, and one async span per sampled object lifetime.
func (s *System) WriteChromeTrace(w io.Writer) error {
	return lifecycle.WriteChromeTrace(w, s.Trace(), s.ledger)
}

// EngineName reports which DCAS engine the system runs on.
func (s *System) EngineName() string { return s.engine.Name() }

// Stats returns the system's unified accounting snapshot: heap counters,
// LFRC operation counters, the sharded allocator's per-shard state, and the
// deferred-reclamation backlog, in one structure with stable JSON tags.
// Individual counters are read atomically but the snapshot as a whole is
// racy; take it at quiescence when exact cross-counter invariants matter.
func (s *System) Stats() Stats {
	ms := s.heap.AllocStats()
	a := AllocStats{
		Shards:           ms.Shards,
		FillTarget:       ms.FillTarget,
		GlobalFreeListed: ms.GlobalFreeListed,
		PerShard:         make([]ShardStats, len(ms.PerShard)),
	}
	for i, sh := range ms.PerShard {
		a.PerShard[i] = ShardStats(sh)
	}
	st := Stats{
		Engine:     s.engine.Name(),
		RCStrategy: s.rc.StrategyName(),
		Heap:       HeapStats(s.heap.Stats()),
		RC:         RCStats(s.rc.Stats()),
		Alloc:      a,
		Reclaim:    ReclaimStats(s.rc.Reclaimer().Stats()),
		Zombies:    s.rc.ZombieCount(),
	}
	if s.ledger != nil {
		st.Lifecycle = LifecycleStats{
			Enabled:        true,
			SampleEvery:    s.ledger.SampleEvery(),
			Tracked:        s.ledger.TrackedCount(),
			SampledObjects: s.ledger.SampledObjects(),
			SkippedFull:    s.ledger.SkippedFull(),
			AuditPasses:    s.auditor.Passes(),
			Violations:     s.auditor.ViolationCount(),
			Epoch:          s.heap.Epoch(),
		}
	}
	if s.fj != nil {
		st.Fault = FaultStats{
			Enabled:  true,
			Seed:     s.fj.Seed(),
			Injected: s.fj.Fires(),
			Points:   s.fj.Stats(),
		}
	}
	st.Degraded = DegradedStats{
		PolicyEnabled:  s.pressure.MaxRetries > 0,
		Retries:        s.deg.retries.Load(),
		Recoveries:     s.deg.recoveries.Load(),
		Exhaustions:    s.deg.exhaustions.Load(),
		ZombiesDrained: s.deg.zombiesDrained.Load(),
	}
	st.Timeline = s.tl.Stats()
	st.Watchdog = s.wd.Stats()
	return st
}

// Stats is the one-call snapshot of everything the system counts.
type Stats struct {
	// Engine names the DCAS engine the system runs on.
	Engine string `json:"engine"`

	// RCStrategy names the reference-count strategy in effect
	// ("figure2" or "split"; see WithRCStrategy).
	RCStrategy string `json:"rc_strategy"`

	// Heap is the heap accounting (allocs, frees, liveness, corruption
	// detectors).
	Heap HeapStats `json:"heap"`

	// RC is the LFRC operation counters.
	RC RCStats `json:"rc"`

	// Alloc describes the sharded allocator's configuration and per-shard
	// activity.
	Alloc AllocStats `json:"alloc"`

	// Reclaim is the reclamation accounting (see WithIncrementalDestroy).
	Reclaim ReclaimStats `json:"reclaim"`

	// Zombies is the number of objects currently parked on the zombie
	// stack, awaiting deferred reclamation (see WithIncrementalDestroy).
	Zombies int64 `json:"zombies"`

	// Lifecycle is the diagnosis layer's accounting; zero unless the
	// system was built with a lifecycle ledger or auditor.
	Lifecycle LifecycleStats `json:"lifecycle"`

	// Fault is the fault injector's accounting; zero unless the system was
	// built WithFaultPlan.
	Fault FaultStats `json:"fault"`

	// Degraded counts heap-pressure degraded-mode activity (see
	// WithHeapPressurePolicy).
	Degraded DegradedStats `json:"degraded"`

	// Timeline is the telemetry timeline sampler's accounting; zero unless
	// the system was built WithTimeline.
	Timeline TimelineStats `json:"timeline"`

	// Watchdog is the health watchdog's accounting; zero unless a watchdog
	// is riding the timeline (see WithWatchdog).
	Watchdog WatchdogStats `json:"watchdog"`
}

// LifecycleStats is the lifecycle ledger and auditor accounting.
type LifecycleStats struct {
	// Enabled reports whether a lifecycle ledger is installed.
	Enabled bool `json:"enabled"`

	// SampleEvery is the object sampling interval (1 = every object,
	// 0 = installed but off).
	SampleEvery int `json:"sample_every"`

	// Tracked is the number of currently tracked objects; SampledObjects
	// counts objects ever selected; SkippedFull counts selections dropped
	// because the track table was at capacity.
	Tracked        int64  `json:"tracked"`
	SampledObjects uint64 `json:"sampled_objects"`
	SkippedFull    uint64 `json:"skipped_full"`

	// AuditPasses counts invariant-auditor sweeps; Violations counts
	// breaches ever flagged; Epoch is the heap epoch the auditor ticks
	// once per pass.
	AuditPasses uint64 `json:"audit_passes"`
	Violations  uint64 `json:"violations"`
	Epoch       uint64 `json:"epoch"`
}

// HeapStats mirrors the heap's accounting snapshot. See the field docs on
// the internal mem.Stats for precise semantics.
type HeapStats struct {
	Allocs        int64 `json:"allocs"`
	Frees         int64 `json:"frees"`
	Recycles      int64 `json:"recycles"`
	LiveObjects   int64 `json:"live_objects"`
	LiveWords     int64 `json:"live_words"`
	HighWater     int64 `json:"high_water"`
	DoubleFrees   int64 `json:"double_frees"`
	Corruptions   int64 `json:"corruptions"`
	AllocFailures int64 `json:"alloc_failures"`
}

// ReclaimStats is the reclamation accounting snapshot: the destroy
// recursion and the zombie stack that holds what an incremental-destroy
// budget leaves over (see DESIGN.md §3.10).
type ReclaimStats struct {
	// Backend is always "lfrc", the paper's eager reclamation.
	Backend string `json:"backend"`

	// Retired counts objects handed over at count zero; Freed counts
	// objects actually freed, including cascaded descendants discovered
	// by the destroy recursion. Parked counts pushes onto the zombie
	// stack; Pending is its current backlog (also exported as
	// Stats.Zombies).
	Retired int64 `json:"retired"`
	Freed   int64 `json:"freed"`
	Parked  int64 `json:"parked"`
	Pending int64 `json:"pending"`

	// Drains counts explicit DrainZombies calls (maintenance or
	// degraded-mode).
	Drains int64 `json:"drains"`
}

// RCStats mirrors the LFRC operation counters.
type RCStats struct {
	Allocs            int64 `json:"allocs"`
	Frees             int64 `json:"frees"`
	FreeErrors        int64 `json:"free_errors"`
	Loads             int64 `json:"loads"`
	LoadRetries       int64 `json:"load_retries"`
	Stores            int64 `json:"stores"`
	Copies            int64 `json:"copies"`
	CASOps            int64 `json:"cas_ops"`
	DCASOps           int64 `json:"dcas_ops"`
	Destroys          int64 `json:"destroys"`
	ZombiePushes      int64 `json:"zombie_pushes"`
	PoisonedRCUpdates int64 `json:"poisoned_rc_updates"`

	// WeightRefills and ExtMerges are split-strategy traffic: stash
	// refills and external-count merges (always 0 under figure2). See
	// WithRCStrategy.
	WeightRefills int64 `json:"weight_refills"`
	ExtMerges     int64 `json:"ext_merges"`
}

// AllocStats mirrors the sharded allocator's snapshot. See the internal
// mem.AllocStats for precise semantics.
type AllocStats struct {
	Shards           int          `json:"shards"`
	FillTarget       int          `json:"fill_target"`
	GlobalFreeListed int64        `json:"global_free_listed"`
	PerShard         []ShardStats `json:"per_shard"`
}

// ShardStats describes one allocation shard's activity and holdings.
type ShardStats struct {
	Allocs     int64 `json:"allocs"`
	Frees      int64 `json:"frees"`
	Recycles   int64 `json:"recycles"`
	FreeListed int64 `json:"free_listed"`
	ChunkFree  int64 `json:"chunk_free"`
}

// DrainZombies finishes up to max deferred reclamations (0 = all): objects
// parked on the zombie stack by an incremental-destroy budget
// (WithIncrementalDestroy). It returns the number of objects freed.
func (s *System) DrainZombies(max int) int { return s.rc.DrainZombies(max) }

// ZombieCount reports how many objects currently await deferred reclamation
// on the zombie stack.
func (s *System) ZombieCount() int64 { return s.rc.ZombieCount() }

// Collect runs the stop-the-world backup tracing collector (paper §7) and
// returns how many unreachable objects it reclaimed. Every structure created
// from this System is automatically registered as a root until its Close.
// The system must be quiescent: no operations may run concurrently.
//
// Collect first drains the zombie stack (WithIncrementalDestroy): a parked
// zombie is unreachable but already on its way to the allocator, and the
// drain would release it again after the sweep had freed it.
func (s *System) Collect() CollectResult {
	s.rc.DrainZombies(0)
	return CollectResult(s.collector.Collect(s.rc.SnapshotRead, s.rc.DecodeLink))
}

// CollectResult reports one backup-collection pass.
type CollectResult struct {
	// Marked is the number of reachable objects.
	Marked int

	// Freed is the number of unreachable objects reclaimed (cyclic
	// garbage, with correct clients).
	Freed int

	// RCAdjusted counts survivor reference counts fixed up because swept
	// garbage pointed at them.
	RCAdjusted int
}

// Audit verifies, at quiescence, that every live object's reference count
// equals the number of pointers to it (heap pointers plus one per open
// structure handle). It returns human-readable violation descriptions; an
// empty result means the counts are exact. The system must be quiescent.
// When the flight recorder is enabled, each violation also captures a
// postmortem (the trailing flight events touching the offending ref),
// retrievable with Postmortems.
func (s *System) Audit() []string {
	ms := census.Audit(census.Config{
		Heap:   s.heap,
		Read:   s.rc.SnapshotRead,
		Decode: s.rc.DecodeLink,
		Roots:  s.collector.Roots(),
	})
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("rc violation at %#x: want %d, got %d", m.Ref, m.Expected, int64(m.Stored))
		s.obs.CapturePostmortem("audit: "+out[i], m.Ref)
	}
	return out
}
