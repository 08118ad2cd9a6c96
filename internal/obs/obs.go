// Package obs is the lock-free flight recorder behind the reproduction's
// observability layer.
//
// The paper's correctness story (no premature free, no leak) and all of its
// performance claims hinge on events — DCAS outcomes, retries, allocator
// recycling, deferred reclamation — that were previously visible only as
// aggregate counters, or not at all. The recorder makes the recent event
// history first-class while obeying one hard rule: it must never perturb the
// lock-free algorithms it watches. Concretely:
//
//   - Recording is sampled and allocation-free. A disabled or unsampled call
//     costs one nil/zero check (and, when sampling, one striped atomic add);
//     nothing is ever locked on the hot path.
//   - Events land in per-stripe rings of cache-line-independent slots. A
//     writer claims a slot with one striped atomic increment and publishes
//     the event with a per-slot seqlock (sequence word written last), so
//     concurrent snapshots see each slot either whole or not at all — no
//     torn events, no locks, no waiting.
//   - Latency and retry distributions go to mergeable concurrent histograms
//     (package hist), observed only on sampled operations.
//
// The cold paths — Trace snapshots and violation postmortems — may allocate
// and (for postmortem retention only) take a mutex; they run during
// diagnostics, not inside the algorithms.
//
// The package deliberately depends only on hist and stripe so that mem,
// core, and the structure packages can all record into one Recorder without
// import cycles; object references are plain uint32 word addresses
// (mem.Ref's underlying type).
package obs

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lfrc/internal/hist"
	"lfrc/internal/stripe"
)

// defaultStripes is the stripe-count fallback: one per schedulable thread.
func defaultStripes() int { return runtime.GOMAXPROCS(0) }

// Kind classifies a recorded event.
type Kind uint8

// Event kinds. The LFRC operation kinds (Load..Destroy) are recorded by
// package core, the allocator kinds (Alloc..ZombieDrain) by package mem and
// the zombie machinery, and the structure kinds (PushLeft..PopRight) by the
// deque; Violation marks a postmortem trigger.
const (
	KindNone Kind = iota
	KindLoad
	KindNaiveLoad
	KindStore
	KindCopy
	KindCAS
	KindDCAS
	KindDestroy
	KindAlloc
	KindFree
	KindSteal
	KindZombiePush
	KindZombieDrain
	KindPushLeft
	KindPushRight
	KindPopLeft
	KindPopRight
	KindViolation

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [...]string{
		KindNone:        "none",
		KindLoad:        "load",
		KindNaiveLoad:   "naive_load",
		KindStore:       "store",
		KindCopy:        "copy",
		KindCAS:         "cas",
		KindDCAS:        "dcas",
		KindDestroy:     "destroy",
		KindAlloc:       "alloc",
		KindFree:        "free",
		KindSteal:       "steal",
		KindZombiePush:  "zombie_push",
		KindZombieDrain: "zombie_drain",
		KindPushLeft:    "push_left",
		KindPushRight:   "push_right",
		KindPopLeft:     "pop_left",
		KindPopRight:    "pop_right",
		KindViolation:   "violation",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded flight event.
type Event struct {
	// Seq is the event's global sequence number (1-based, total order
	// across stripes).
	Seq uint64 `json:"seq"`

	// TS is the event's completion time, nanoseconds since the Unix epoch.
	TS int64 `json:"ts"`

	// Kind classifies the event.
	Kind Kind `json:"kind"`

	// OK is the operation's outcome: DCAS/CAS success, or whether a
	// Destroy dropped the count to zero.
	OK bool `json:"ok"`

	// Retries counts failed attempts before the recorded outcome.
	Retries uint32 `json:"retries"`

	// Ref is the primary object the event touched (0 if none).
	Ref uint32 `json:"ref"`

	// Addr is the shared cell involved (0 if none): the loaded/stored
	// cell, a DCAS's first address, and so on.
	Addr uint32 `json:"addr"`

	// Old and New carry the event's transition values, when it has any:
	// the before/after reference count for rc-updating operations
	// (Load/Store/Copy/CAS/DCAS increments, Destroy decrements), and the
	// slot generation / heap epoch for Alloc and Free. Zero when the
	// event carries no transition.
	Old uint32 `json:"old,omitempty"`
	New uint32 `json:"new,omitempty"`
}

// String renders one event for postmortem dumps.
func (e Event) String() string {
	s := fmt.Sprintf("#%d %s ref=%#x addr=%#x ok=%t retries=%d",
		e.Seq, e.Kind, e.Ref, e.Addr, e.OK, e.Retries)
	if e.Old != 0 || e.New != 0 {
		s += fmt.Sprintf(" %d->%d", e.Old, e.New)
	}
	return s
}

// Slot words pack an Event for seqlock publication:
//
//	w0: sequence number (0 = never written; doubles as the publish word)
//	w1: timestamp
//	w2: kind(8) | ok(8) | retries(32)
//	w3: ref(32) | addr(32)
//	w4: old(32) | new(32)
type slot struct {
	w0, w1, w2, w3, w4 atomic.Uint64
}

func packW2(k Kind, ok bool, retries uint32) uint64 {
	v := uint64(k)<<48 | uint64(retries)
	if ok {
		v |= 1 << 40
	}
	return v
}

func (s *slot) store(e Event) {
	// Invalidate, write payload, publish. The release ordering of Go
	// atomics makes the payload visible before the new sequence number.
	s.w0.Store(0)
	s.w1.Store(uint64(e.TS))
	s.w2.Store(packW2(e.Kind, e.OK, e.Retries))
	s.w3.Store(uint64(e.Ref)<<32 | uint64(e.Addr))
	s.w4.Store(uint64(e.Old)<<32 | uint64(e.New))
	s.w0.Store(e.Seq)
}

// load returns the slot's event, or ok=false if it is empty or was being
// rewritten while we read it.
func (s *slot) load() (Event, bool) {
	seq := s.w0.Load()
	if seq == 0 {
		return Event{}, false
	}
	e := Event{
		Seq: seq,
		TS:  int64(s.w1.Load()),
	}
	w2 := s.w2.Load()
	e.Kind = Kind(w2 >> 48)
	e.OK = w2&(1<<40) != 0
	e.Retries = uint32(w2)
	w3 := s.w3.Load()
	e.Ref = uint32(w3 >> 32)
	e.Addr = uint32(w3)
	w4 := s.w4.Load()
	e.Old = uint32(w4 >> 32)
	e.New = uint32(w4)
	if s.w0.Load() != seq || e.Kind >= numKinds {
		return Event{}, false
	}
	return e, true
}

// recStripe is one stripe of the recorder: a private ring cursor and
// sampling counter (padded so neighbouring stripes never false-share) plus
// the stripe's event ring.
type recStripe struct {
	pos     atomic.Uint64 // next ring slot (monotonic; masked on use)
	sampleN atomic.Uint64 // operations seen, for 1-in-N sampling
	_       [48]byte
	ring    []slot
}

// Option configures a Recorder.
type Option func(*config)

type config struct {
	every    uint64
	ringSize int
	stripes  int
}

// WithSampleEvery records every nth eligible operation: 1 records all, 0
// disables recording entirely (the recorder stays installed and the hot
// paths pay only the disabled check). The default is 64.
func WithSampleEvery(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.every = uint64(n)
	}
}

// WithRingSize sets each stripe's event-ring capacity, rounded up to a power
// of two. The default is 1024 events per stripe.
func WithRingSize(n int) Option {
	return func(c *config) { c.ringSize = n }
}

// WithStripes sets the stripe count; the default is GOMAXPROCS, clamped like
// every other striped facility (package stripe).
func WithStripes(n int) Option {
	return func(c *config) { c.stripes = n }
}

// Sink is a secondary event consumer fed by the recorder: the per-ref
// lifecycle ledger (package lifecycle). A sink samples by *object*, not by
// operation: the recorder consults the sink's Tracked set for every event
// with a nonzero ref — including operations its own 1-in-N sampling skipped
// — so a sink sees the complete event chain of every object it claims. Alloc
// events are always offered (the set is not consulted) so the sink can make
// its track/ignore decision at object birth.
//
// The membership gate is a concrete *RefSet rather than a method so the
// per-operation check is a direct inlinable probe, not an interface call:
// with nothing tracked the whole tap costs one atomic load per operation.
// OnEvent runs only for claimed refs (plus allocs) and may take short
// per-object locks. Events whose operation was not op-sampled arrive with
// TS 0; a sink that needs a timestamp stamps them itself.
type Sink interface {
	// Tracked returns the set of refs the sink currently claims. The
	// recorder caches the pointer at SetSink time; it must stay valid for
	// the recorder's lifetime. A nil set claims nothing (alloc-only tap).
	Tracked() *RefSet

	// OnEvent delivers one event touching a claimed ref (or any Alloc).
	// The event's Seq is 0: sink delivery is independent of the ring.
	OnEvent(e Event)
}

// Agg is the recorder's aggregation tap: a consumer of every op-sampled
// event together with the operation's measured latency, which the Event
// itself does not carry. The contention observatory (package contend)
// implements it to charge retried operations' wasted time to their cells.
// Unlike a Sink, an Agg sees only ring-recorded events — its cost is paid
// once per sampled operation, never on the unsampled fast path — and its
// implementation must be lock-free and allocation-free.
type Agg interface {
	// Aggregate receives one op-sampled event and its latency in
	// nanoseconds. The event's Seq is 0: aggregation is independent of
	// the ring.
	Aggregate(e Event, latencyNS int64)
}

// Recorder is the flight recorder. The zero value is not usable; call New.
// A nil *Recorder is a valid disabled recorder: every hot-path method on it
// is a cheap no-op, so callers embed one pointer and never branch twice.
type Recorder struct {
	every   uint64
	stripes []recStripe
	mask    uint64
	seq     atomic.Uint64

	// sink is the optional per-ref event tap; nil costs one branch per
	// recorded call. Set once via SetSink before the recorder is shared.
	// sinkRefs caches sink.Tracked() so the per-operation membership probe
	// is a direct call on the concrete set, not interface dispatch.
	sink     Sink
	sinkRefs *RefSet

	// agg is the optional aggregation tap; nil costs one branch per
	// sampled record. Set once via SetAgg before the recorder is shared.
	agg Agg

	lat     [numKinds]hist.Concurrent
	retries hist.Concurrent

	pmMu    sync.Mutex
	pms     []Postmortem // ring: the newest maxPostmortems captures
	pmHead  int          // index of the oldest retained capture once full
	pmTotal uint64       // captures ever taken (rolls past the ring bound)
}

// maxPostmortems bounds retained postmortems so a corruption storm cannot
// grow memory without bound.
const maxPostmortems = 32

// PostmortemEvents is how many trailing events a postmortem captures.
const PostmortemEvents = 32

// refSpan is the address window after an object base treated as "touching"
// that object when matching events by cell address; it mirrors the heap's
// maximum object size in words.
const refSpan = 64

// New creates a Recorder.
func New(opts ...Option) *Recorder {
	cfg := config{every: 64, ringSize: 1024}
	for _, o := range opts {
		o(&cfg)
	}
	size := 1
	for size < cfg.ringSize {
		size <<= 1
	}
	n := stripe.Clamp(cfg.stripes, defaultStripes())
	r := &Recorder{
		every:   cfg.every,
		stripes: make([]recStripe, n),
		mask:    uint64(size - 1),
	}
	for i := range r.stripes {
		r.stripes[i].ring = make([]slot, size)
	}
	return r
}

// SetSink installs the per-ref event tap. It must be called before the
// recorder starts receiving events (the field is read without
// synchronization on the hot path); installation is one-shot by convention.
// A nil sink leaves tapping disabled.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.sink = s
	if s != nil {
		r.sinkRefs = s.Tracked()
	} else {
		r.sinkRefs = nil
	}
}

// SetAgg installs the aggregation tap. Like SetSink it must be called
// before the recorder starts receiving events (the field is read without
// synchronization on the hot path). A nil agg leaves aggregation disabled.
func (r *Recorder) SetAgg(a Agg) {
	if r == nil {
		return
	}
	r.agg = a
}

// SampleEvery reports the configured sampling interval (0 = disabled).
func (r *Recorder) SampleEvery() int {
	if r == nil {
		return 0
	}
	return int(r.every)
}

// Recorded reports how many events have been recorded so far.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Sample begins one potentially recorded operation: it returns a nonzero
// start timestamp when this operation was selected for recording and 0
// otherwise (including on a nil or disabled recorder). Callers thread the
// token through to Record, which is a no-op for 0, so an unsampled operation
// pays exactly this one check. The check inlines into the caller; only a
// recorder that samples calls the outlined body.
func (r *Recorder) Sample() int64 {
	if r == nil || r.every == 0 {
		return 0
	}
	return r.sample()
}

// sample is Sample's body on a recorder that samples.
func (r *Recorder) sample() int64 {
	if r.every > 1 {
		st := &r.stripes[stripe.Hint(len(r.stripes))]
		if st.sampleN.Add(1)%r.every != 0 {
			return 0
		}
	}
	return time.Now().UnixNano()
}

// Record completes a sampled operation begun by Sample: it appends the event
// to the calling stripe's ring and feeds the operation's latency and retry
// count to the histograms. t0 of 0 (unsampled) makes it a no-op for the ring
// and histograms; an installed sink still receives events for refs it claims.
// It repeats RecordT's check rather than calling RecordT, which would push
// it past the inliner's budget.
func (r *Recorder) Record(t0 int64, kind Kind, ref, addr uint32, ok bool, retries uint32) {
	if r != nil && (t0 != 0 || r.sink != nil) {
		r.recordT(t0, kind, ref, addr, ok, retries, 0, 0)
	}
}

// RecordT is Record carrying a transition (old/new reference count, or
// generation/epoch stamps for allocator events) in the event's Old/New
// fields. On a nil recorder, or for an unsampled operation (t0 of 0) with no
// sink installed, it costs one check that inlines into the caller.
func (r *Recorder) RecordT(t0 int64, kind Kind, ref, addr uint32, ok bool, retries, oldv, newv uint32) {
	if r != nil && (t0 != 0 || r.sink != nil) {
		r.recordT(t0, kind, ref, addr, ok, retries, oldv, newv)
	}
}

// recordT is RecordT's body once a sampled operation or a sink may want
// the event.
func (r *Recorder) recordT(t0 int64, kind Kind, ref, addr uint32, ok bool, retries, oldv, newv uint32) {
	wanted := r.sink != nil && ref != 0 && (kind == KindAlloc || r.sinkRefs.Has(ref))
	if t0 == 0 && !wanted {
		return
	}
	// Only op-sampled events pay for a timestamp; sink-only deliveries go
	// out with TS 0 and the sink stamps them if it keeps the event.
	var now int64
	if t0 != 0 {
		now = time.Now().UnixNano()
	}
	e := Event{TS: now, Kind: kind, OK: ok, Retries: retries, Ref: ref, Addr: addr, Old: oldv, New: newv}
	if wanted {
		r.sink.OnEvent(e)
	}
	if t0 == 0 {
		return
	}
	if kind < numKinds {
		r.lat[kind].Observe(now - t0)
	}
	r.retries.Observe(int64(retries))
	if r.agg != nil {
		r.agg.Aggregate(e, now-t0)
	}
	r.append(e)
}

// Note records a point event (no latency) subject to the same sampling as
// Sample: allocator recycling, steals, zombie parking. Nil-safe. An
// installed sink receives the event for refs it claims regardless of
// sampling.
func (r *Recorder) Note(kind Kind, ref, addr uint32) {
	if r != nil && (r.every != 0 || r.sink != nil) {
		r.note(kind, ref, addr)
	}
}

// note is Note's body on a recorder that samples or has a sink.
func (r *Recorder) note(kind Kind, ref, addr uint32) {
	wanted := r.sink != nil && ref != 0 && (kind == KindAlloc || r.sinkRefs.Has(ref))
	sampled := r.every != 0
	if sampled && r.every > 1 {
		st := &r.stripes[stripe.Hint(len(r.stripes))]
		if st.sampleN.Add(1)%r.every != 0 {
			sampled = false
		}
	}
	if !sampled && !wanted {
		return
	}
	var now int64
	if sampled {
		now = time.Now().UnixNano()
	}
	e := Event{TS: now, Kind: kind, Ref: ref, Addr: addr, OK: true}
	if wanted {
		r.sink.OnEvent(e)
	}
	if sampled {
		r.append(e)
	}
}

// noteAlways records an event regardless of sampling — used for violations,
// which must never be sampled away.
func (r *Recorder) noteAlways(kind Kind, ref, addr uint32) {
	if r == nil {
		return
	}
	e := Event{TS: time.Now().UnixNano(), Kind: kind, Ref: ref, Addr: addr}
	if r.sink != nil && ref != 0 && r.sinkRefs.Has(ref) {
		r.sink.OnEvent(e)
	}
	r.append(e)
}

// append claims a slot on the calling stripe and publishes the event.
func (r *Recorder) append(e Event) {
	e.Seq = r.seq.Add(1)
	st := &r.stripes[stripe.Hint(len(r.stripes))]
	idx := st.pos.Add(1) - 1
	st.ring[idx&r.mask].store(e)
}

// Events returns a snapshot of every buffered event in ascending sequence
// order. Slots being rewritten during the scan are skipped whole (seqlock),
// never returned torn. Cold path; allocates.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.stripes {
		ring := r.stripes[i].ring
		for j := range ring {
			if e, ok := ring[j].load(); ok {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// EventsTouching returns the last n buffered events touching ref: events
// whose Ref is ref or whose cell address falls inside ref's object span.
func (r *Recorder) EventsTouching(ref uint32, n int) []Event {
	if r == nil || n <= 0 {
		return nil
	}
	all := r.Events()
	var out []Event
	for _, e := range all {
		if e.Ref == ref || (e.Addr >= ref && e.Addr < ref+refSpan) {
			out = append(out, e)
		}
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// LatencySnapshots returns the per-kind latency histograms (nanoseconds) for
// kinds with at least one sample.
func (r *Recorder) LatencySnapshots() map[Kind]hist.Histogram {
	if r == nil {
		return nil
	}
	out := make(map[Kind]hist.Histogram)
	for k := Kind(1); k < numKinds; k++ {
		if h := r.lat[k].Snapshot(); h.Count() > 0 {
			out[k] = h
		}
	}
	return out
}

// KindLatencyQuantiles computes latency quantiles (nanoseconds) for one op
// kind straight off the live histogram: unlike LatencySnapshots it copies no
// Histogram values and allocates nothing, so the timeline capture path can
// digest quantiles every interval. out[i] answers ps[i]; the return value is
// the sample count (0 leaves out zero-filled). Nil-safe; out-of-range kinds
// report 0 samples.
func (r *Recorder) KindLatencyQuantiles(k Kind, ps []float64, out []int64) int64 {
	if r == nil || k <= KindNone || k >= numKinds {
		for i := range out {
			out[i] = 0
		}
		return 0
	}
	return r.lat[k].QuantilesInto(ps, out)
}

// RetryQuantiles is KindLatencyQuantiles for the cross-kind retry-count
// histogram.
func (r *Recorder) RetryQuantiles(ps []float64, out []int64) int64 {
	if r == nil {
		for i := range out {
			out[i] = 0
		}
		return 0
	}
	return r.retries.QuantilesInto(ps, out)
}

// RetrySnapshot returns the retry-count histogram across all recorded
// operations.
func (r *Recorder) RetrySnapshot() hist.Histogram {
	if r == nil {
		return hist.Histogram{}
	}
	return r.retries.Snapshot()
}

// Postmortem is the flight-recorder dump captured when a violation fires:
// the trailing events that touched the offending object.
type Postmortem struct {
	// Reason describes the trigger ("rc violation", "poison corruption").
	Reason string `json:"reason"`

	// Ref is the offending object.
	Ref uint32 `json:"ref"`

	// TS is the capture time (nanoseconds since the Unix epoch).
	TS int64 `json:"ts"`

	// Events are the last PostmortemEvents flight events touching Ref,
	// oldest first.
	Events []Event `json:"events"`
}

// String renders the postmortem, one event per line.
func (p Postmortem) String() string {
	s := fmt.Sprintf("postmortem %s ref=%#x: %d flight events", p.Reason, p.Ref, len(p.Events))
	for _, e := range p.Events {
		s += "\n  " + e.String()
	}
	return s
}

// CapturePostmortem snapshots the trailing events touching ref, retains the
// result (bounded at maxPostmortems), records a violation event, and returns
// the capture. It is the dump-on-violation entry point, called by the heap's
// corruption detector and the quiescent auditors; it locks, which is fine on
// a violation path and unacceptable anywhere else.
func (r *Recorder) CapturePostmortem(reason string, ref uint32) Postmortem {
	if r == nil {
		return Postmortem{Reason: reason, Ref: ref}
	}
	p := Postmortem{
		Reason: reason,
		Ref:    ref,
		TS:     time.Now().UnixNano(),
		Events: r.EventsTouching(ref, PostmortemEvents),
	}
	r.noteAlways(KindViolation, ref, 0)
	r.pmMu.Lock()
	if len(r.pms) < maxPostmortems {
		r.pms = append(r.pms, p)
	} else {
		// Ring: overwrite the oldest so a violation storm keeps the most
		// recent captures instead of freezing the first 32.
		r.pms[r.pmHead] = p
		r.pmHead = (r.pmHead + 1) % maxPostmortems
	}
	r.pmTotal++
	r.pmMu.Unlock()
	return p
}

// Postmortems returns the retained postmortems (the newest maxPostmortems
// captures), oldest first.
func (r *Recorder) Postmortems() []Postmortem {
	if r == nil {
		return nil
	}
	r.pmMu.Lock()
	defer r.pmMu.Unlock()
	if len(r.pms) == 0 {
		return nil
	}
	out := make([]Postmortem, 0, len(r.pms))
	out = append(out, r.pms[r.pmHead:]...)
	out = append(out, r.pms[:r.pmHead]...)
	return out
}

// PostmortemCount reports how many postmortems have ever been captured,
// including captures the retention ring has since overwritten.
func (r *Recorder) PostmortemCount() uint64 {
	if r == nil {
		return 0
	}
	r.pmMu.Lock()
	defer r.pmMu.Unlock()
	return r.pmTotal
}

// Trace is the one-call dump of the recorder's state.
type Trace struct {
	// SampleEvery is the sampling interval (0 = disabled, 1 = full).
	SampleEvery int `json:"sample_every"`

	// Recorded is the total number of events recorded since creation
	// (the ring keeps only the most recent ones).
	Recorded uint64 `json:"recorded"`

	// Events is the buffered event history, ascending sequence order.
	Events []Event `json:"events"`

	// Latency digests sampled operation latencies per kind, nanoseconds.
	Latency map[string]hist.Summary `json:"latency_ns"`

	// Retries digests retry counts across sampled operations.
	Retries hist.Summary `json:"retries"`

	// Postmortems are the retained dump-on-violation captures.
	Postmortems []Postmortem `json:"postmortems,omitempty"`
}

// Trace returns the full dump. Nil-safe: a nil recorder returns a zero
// Trace.
func (r *Recorder) Trace() Trace {
	if r == nil {
		return Trace{}
	}
	t := Trace{
		SampleEvery: r.SampleEvery(),
		Recorded:    r.Recorded(),
		Events:      r.Events(),
		Latency:     make(map[string]hist.Summary),
		Retries:     r.retries.Snapshot().Summary(),
		Postmortems: r.Postmortems(),
	}
	for k, h := range r.LatencySnapshots() {
		t.Latency[k.String()] = h.Summary()
	}
	return t
}
