// Package timeline is the continuous telemetry timeline: a background
// sampler that turns the reproduction's point-in-time counters into
// inspectable time series.
//
// Every observability surface built before it — /metrics, Stats(), the
// contention report — answers "what is true now"; the benchmark under bench/
// answers "what was the median over a whole run". The phenomena that matter
// to the north star are trajectories between those two extremes: a zombie
// backlog under an incremental-destroy budget grows and drains over seconds,
// degradation retry storms are bursty, and contention hot-spots migrate
// between the deque's hats under phase-shifting load. The timeline captures a compact delta
// snapshot of all the existing counters every interval (default 100ms) into
// a fixed-size ring, so any of them can be read back as a series.
//
// The design obeys the same hard rule as the flight recorder (package obs):
// it must never perturb the algorithms it watches. Concretely:
//
//   - Capture is strictly read-only against the existing striped counters.
//     Instrumented operations pay nothing new: no additional counter, no
//     extra branch, no write they did not already do. The sampler is a pure
//     reader on a 100ms-class cadence.
//   - Capture allocates nothing. The capture callback fills a caller-owned
//     Sample in place (fixed-size fields only, no slices or maps), deltas
//     are computed against a sampler-private previous Sample, and the result
//     is encoded into a preallocated ring slot.
//   - The ring is lock-free for readers: power-of-two slots, each published
//     seqlock-style through atomic words (sequence word written last), so a
//     concurrent Snapshot sees every slot either whole or not at all.
//     Wraparound silently drops the oldest samples; nothing ever blocks.
//
// The root package owns the capture callback (it can see every subsystem);
// this package owns the cadence, the ring, and the export encodings.
package timeline

import (
	"sync"
	"sync/atomic"
	"time"
)

// MaxShards is how many allocation shards a Sample records individually;
// shards beyond it are still counted in the aggregate heap counters.
const MaxShards = 8

// TopK is how many contention hot cells a Sample carries.
const TopK = 4

// HotCell is one contention heatmap entry carried by a Sample.
type HotCell struct {
	// Addr is the cell's word address (0 = empty entry).
	Addr uint32 `json:"addr"`

	// RoleID is the cell's role as a small integer; Role is its rendered
	// name, filled at snapshot time from the sampler's role namer (the
	// capture path must not touch strings).
	RoleID uint8  `json:"-"`
	Role   string `json:"role"`

	// Hot is the decaying activity score; Failures the attributed failed
	// attempts (cumulative).
	Hot      int64 `json:"hot"`
	Failures int64 `json:"failures"`
}

// Sample is one timeline interval. Counter fields hold the delta over the
// interval (DurNS); gauge and quantile fields hold the instantaneous value at
// capture time. The capture callback fills every field with the *cumulative*
// counter value; the sampler turns cumulative fields into deltas against the
// previous capture before publication.
type Sample struct {
	// Seq is the capture's 1-based ordinal; TS its capture time in
	// nanoseconds since the Unix epoch; DurNS the elapsed time since the
	// previous capture (0 on the first).
	Seq   uint64 `json:"seq"`
	TS    int64  `json:"ts"`
	DurNS int64  `json:"dur_ns"`

	// Heap counters (deltas) and gauges.
	HeapAllocs      int64 `json:"heap_allocs"`
	HeapFrees       int64 `json:"heap_frees"`
	HeapRecycles    int64 `json:"heap_recycles"`
	HeapLiveObjects int64 `json:"heap_live_objects"` // gauge
	HeapLiveWords   int64 `json:"heap_live_words"`   // gauge
	HeapHighWater   int64 `json:"heap_high_water"`   // gauge

	// LFRC operation counters (deltas).
	RCLoads        int64 `json:"rc_loads"`
	RCLoadRetries  int64 `json:"rc_load_retries"`
	RCStores       int64 `json:"rc_stores"`
	RCCopies       int64 `json:"rc_copies"`
	RCCAS          int64 `json:"rc_cas"`
	RCDCAS         int64 `json:"rc_dcas"`
	RCDestroys     int64 `json:"rc_destroys"`
	RCZombiePushes int64 `json:"rc_zombie_pushes"`

	// Sharded allocator: the global overflow list occupancy (gauge), the
	// configured shard count, and per-shard allocation deltas for the
	// first MaxShards shards.
	AllocGlobalFree int64            `json:"alloc_global_free"` // gauge
	Shards          int64            `json:"shards"`
	ShardAllocs     [MaxShards]int64 `json:"shard_allocs"`

	// Deferred reclamation: the zombie-stack backlog as a gauge, plus
	// retire/free deltas.
	Zombies        int64 `json:"zombies"`         // gauge
	ReclaimRetired int64 `json:"reclaim_retired"` // delta
	ReclaimFreed   int64 `json:"reclaim_freed"`   // delta
	ReclaimPending int64 `json:"reclaim_pending"` // gauge

	// Heap-pressure degradation counters (deltas).
	DegRetries        int64 `json:"deg_retries"`
	DegRecoveries     int64 `json:"deg_recoveries"`
	DegExhaustions    int64 `json:"deg_exhaustions"`
	DegZombiesDrained int64 `json:"deg_zombies_drained"`

	// Fault injector firings and flight-recorder events (deltas).
	FaultInjected uint64 `json:"fault_injected"`
	ObsRecorded   uint64 `json:"obs_recorded"`

	// Flight-recorder digests at capture time: sampled load/store latency
	// quantiles and the retry-count p99 (cumulative-histogram quantiles,
	// not per-interval).
	LatLoadP50  int64 `json:"lat_load_p50_ns"`
	LatLoadP99  int64 `json:"lat_load_p99_ns"`
	LatStoreP50 int64 `json:"lat_store_p50_ns"`
	LatStoreP99 int64 `json:"lat_store_p99_ns"`
	RetryP99    int64 `json:"retry_p99"`

	// Hot is the contention observatory's top-K heatmap at capture time
	// (zero-Addr entries are unused slots).
	Hot [TopK]HotCell `json:"hot"`
}

// payloadWords is the encoded size of a Sample minus its Seq (which lives in
// the slot's publication word): 33 scalar words + MaxShards shard words +
// 3 words per hot cell. encode panics if this drifts from the field list.
const payloadWords = 33 + MaxShards + 3*TopK

// slot is one ring entry: w0 carries the sample's Seq and doubles as the
// seqlock publication word (0 = empty or being rewritten), words the encoded
// payload. Every word is atomic so capture-vs-read is race-free; the release
// ordering of the final w0 store publishes the payload whole.
type slot struct {
	w0    atomic.Uint64
	words [payloadWords]atomic.Uint64
}

// encode flattens the sample (minus Seq) into dst. The field order is the
// decode order; both sides go through the same cursor so they cannot drift.
func (s *Sample) encode(dst *[payloadWords]uint64) {
	i := 0
	put := func(v uint64) { dst[i] = v; i++ }
	put(uint64(s.TS))
	put(uint64(s.DurNS))
	put(uint64(s.HeapAllocs))
	put(uint64(s.HeapFrees))
	put(uint64(s.HeapRecycles))
	put(uint64(s.HeapLiveObjects))
	put(uint64(s.HeapLiveWords))
	put(uint64(s.HeapHighWater))
	put(uint64(s.RCLoads))
	put(uint64(s.RCLoadRetries))
	put(uint64(s.RCStores))
	put(uint64(s.RCCopies))
	put(uint64(s.RCCAS))
	put(uint64(s.RCDCAS))
	put(uint64(s.RCDestroys))
	put(uint64(s.RCZombiePushes))
	put(uint64(s.AllocGlobalFree))
	put(uint64(s.Shards))
	for j := 0; j < MaxShards; j++ {
		put(uint64(s.ShardAllocs[j]))
	}
	put(uint64(s.Zombies))
	put(uint64(s.ReclaimRetired))
	put(uint64(s.ReclaimFreed))
	put(uint64(s.ReclaimPending))
	put(uint64(s.DegRetries))
	put(uint64(s.DegRecoveries))
	put(uint64(s.DegExhaustions))
	put(uint64(s.DegZombiesDrained))
	put(s.FaultInjected)
	put(s.ObsRecorded)
	put(uint64(s.LatLoadP50))
	put(uint64(s.LatLoadP99))
	put(uint64(s.LatStoreP50))
	put(uint64(s.LatStoreP99))
	put(uint64(s.RetryP99))
	for j := 0; j < TopK; j++ {
		put(uint64(s.Hot[j].Addr) | uint64(s.Hot[j].RoleID)<<32)
		put(uint64(s.Hot[j].Hot))
		put(uint64(s.Hot[j].Failures))
	}
	if i != payloadWords {
		panic("timeline: encode cursor out of sync with payloadWords")
	}
}

// decode is encode's inverse (Seq comes from the slot's w0).
func (s *Sample) decode(src *[payloadWords]uint64) {
	i := 0
	get := func() uint64 { v := src[i]; i++; return v }
	s.TS = int64(get())
	s.DurNS = int64(get())
	s.HeapAllocs = int64(get())
	s.HeapFrees = int64(get())
	s.HeapRecycles = int64(get())
	s.HeapLiveObjects = int64(get())
	s.HeapLiveWords = int64(get())
	s.HeapHighWater = int64(get())
	s.RCLoads = int64(get())
	s.RCLoadRetries = int64(get())
	s.RCStores = int64(get())
	s.RCCopies = int64(get())
	s.RCCAS = int64(get())
	s.RCDCAS = int64(get())
	s.RCDestroys = int64(get())
	s.RCZombiePushes = int64(get())
	s.AllocGlobalFree = int64(get())
	s.Shards = int64(get())
	for j := 0; j < MaxShards; j++ {
		s.ShardAllocs[j] = int64(get())
	}
	s.Zombies = int64(get())
	s.ReclaimRetired = int64(get())
	s.ReclaimFreed = int64(get())
	s.ReclaimPending = int64(get())
	s.DegRetries = int64(get())
	s.DegRecoveries = int64(get())
	s.DegExhaustions = int64(get())
	s.DegZombiesDrained = int64(get())
	s.FaultInjected = get()
	s.ObsRecorded = get()
	s.LatLoadP50 = int64(get())
	s.LatLoadP99 = int64(get())
	s.LatStoreP50 = int64(get())
	s.LatStoreP99 = int64(get())
	s.RetryP99 = int64(get())
	for j := 0; j < TopK; j++ {
		w := get()
		s.Hot[j].Addr = uint32(w)
		s.Hot[j].RoleID = uint8(w >> 32)
		s.Hot[j].Hot = int64(get())
		s.Hot[j].Failures = int64(get())
	}
}

// store publishes s into the slot: invalidate, write payload, publish. buf is
// caller-owned scratch (the sampler's, so the capture path allocates nothing).
func (sl *slot) store(s *Sample, buf *[payloadWords]uint64) {
	s.encode(buf)
	sl.w0.Store(0)
	for i := range buf {
		sl.words[i].Store(buf[i])
	}
	sl.w0.Store(s.Seq)
}

// load returns the slot's sample, or ok=false if the slot is empty or was
// being rewritten while we read it.
func (sl *slot) load() (Sample, bool) {
	seq := sl.w0.Load()
	if seq == 0 {
		return Sample{}, false
	}
	var buf [payloadWords]uint64
	for i := range buf {
		buf[i] = sl.words[i].Load()
	}
	if sl.w0.Load() != seq {
		return Sample{}, false
	}
	var s Sample
	s.decode(&buf)
	s.Seq = seq
	return s, true
}

// deltas turns the cumulative counter fields of cur into deltas against
// prev, leaving gauges and quantiles untouched. Counters are monotonic, but
// a racy striped read can momentarily run backwards; negative deltas clamp
// to zero so the series never shows phantom reversals.
func (cur *Sample) deltas(prev *Sample) {
	d := func(c, p int64) int64 {
		if c < p {
			return 0
		}
		return c - p
	}
	du := func(c, p uint64) uint64 {
		if c < p {
			return 0
		}
		return c - p
	}
	cur.HeapAllocs = d(cur.HeapAllocs, prev.HeapAllocs)
	cur.HeapFrees = d(cur.HeapFrees, prev.HeapFrees)
	cur.HeapRecycles = d(cur.HeapRecycles, prev.HeapRecycles)
	cur.RCLoads = d(cur.RCLoads, prev.RCLoads)
	cur.RCLoadRetries = d(cur.RCLoadRetries, prev.RCLoadRetries)
	cur.RCStores = d(cur.RCStores, prev.RCStores)
	cur.RCCopies = d(cur.RCCopies, prev.RCCopies)
	cur.RCCAS = d(cur.RCCAS, prev.RCCAS)
	cur.RCDCAS = d(cur.RCDCAS, prev.RCDCAS)
	cur.RCDestroys = d(cur.RCDestroys, prev.RCDestroys)
	cur.RCZombiePushes = d(cur.RCZombiePushes, prev.RCZombiePushes)
	for i := range cur.ShardAllocs {
		cur.ShardAllocs[i] = d(cur.ShardAllocs[i], prev.ShardAllocs[i])
	}
	cur.ReclaimRetired = d(cur.ReclaimRetired, prev.ReclaimRetired)
	cur.ReclaimFreed = d(cur.ReclaimFreed, prev.ReclaimFreed)
	cur.DegRetries = d(cur.DegRetries, prev.DegRetries)
	cur.DegRecoveries = d(cur.DegRecoveries, prev.DegRecoveries)
	cur.DegExhaustions = d(cur.DegExhaustions, prev.DegExhaustions)
	cur.DegZombiesDrained = d(cur.DegZombiesDrained, prev.DegZombiesDrained)
	cur.FaultInjected = du(cur.FaultInjected, prev.FaultInjected)
	cur.ObsRecorded = du(cur.ObsRecorded, prev.ObsRecorded)
}

// Ops is the sample's total LFRC operation delta — the throughput series the
// dashboard's headline panel plots.
func (s Sample) Ops() int64 {
	return s.RCLoads + s.RCStores + s.RCCopies + s.RCCAS + s.RCDCAS + s.RCDestroys
}

// Rate is the sample's LFRC operation rate in ops/sec (0 when the interval
// duration is unknown, i.e. the first capture).
func (s Sample) Rate() float64 {
	if s.DurNS <= 0 {
		return 0
	}
	return float64(s.Ops()) / (float64(s.DurNS) / 1e9)
}

// DefaultInterval is the sampling cadence when WithInterval is not given.
const DefaultInterval = 100 * time.Millisecond

// DefaultSlots is the default ring capacity: ~51s of history at the default
// interval.
const DefaultSlots = 512

// Option configures a Sampler.
type Option func(*Sampler)

// WithInterval sets the capture cadence. Non-positive selects
// DefaultInterval.
func WithInterval(d time.Duration) Option {
	return func(s *Sampler) {
		if d > 0 {
			s.interval = d
		}
	}
}

// WithSlots sets the ring capacity, rounded up to a power of two (minimum
// 8). The ring retains the newest Slots samples; wraparound drops oldest.
// Non-positive keeps the default (so option plumbing can pass a zero value
// through without shrinking the ring to the minimum).
func WithSlots(n int) Option {
	return func(s *Sampler) {
		if n <= 0 {
			return
		}
		size := 8
		for size < n {
			size <<= 1
		}
		s.ring = make([]slot, size)
		s.mask = uint64(size - 1)
	}
}

// WithRoleNames installs the renderer for HotCell role ids (the capture path
// stores only the id; Snapshot fills the name). A nil namer leaves roles
// numeric.
func WithRoleNames(f func(uint8) string) Option {
	return func(s *Sampler) { s.roleName = f }
}

// WithOnSample installs a post-publication hook: after each capture is
// delta-converted and published into the ring, fn is called with the
// published sample (delta form, Seq set). It runs on the capture path under
// the writer lock, so it inherits the capture contract: it must not block,
// allocate on its quiet path, or call back into the Sampler. The health
// watchdog rides this hook so it evaluates exactly once per interval with no
// cadence of its own.
func WithOnSample(fn func(*Sample)) Option {
	return func(s *Sampler) { s.onSample = fn }
}

// Sampler owns the ring and the capture cadence. Create with New, then
// Start/Stop the background goroutine (or drive it manually with CaptureNow
// in tests and benchmarks). All read methods are safe for concurrent use
// with an active sampler.
type Sampler struct {
	capture  func(*Sample)
	roleName func(uint8) string
	onSample func(*Sample)
	interval time.Duration

	ring []slot
	mask uint64
	pos  atomic.Uint64 // captures taken; next slot index

	// mu serializes writers (the background goroutine and manual
	// CaptureNow calls): the delta state below is single-writer by
	// construction. Readers never take it.
	// All capture scratch state is reused per capture so the path stays
	// allocation-free (the buffers escape through the indirect capture
	// call; locals would heap-allocate). bufs holds the two cumulative
	// captures — current and previous — addressed through curIdx and
	// swapped by flipping the index, so becoming "previous" costs nothing;
	// delta is the delta-converted output the ring slot is encoded from.
	mu      sync.Mutex
	bufs    [2]Sample
	curIdx  int
	prevSet bool
	delta   Sample
	scratch [payloadWords]uint64

	stopOnce sync.Once
	stopc    chan struct{}
	donec    chan struct{}
	running  atomic.Bool
}

// New creates a Sampler around a capture callback. The callback must fill
// the Sample with cumulative counter values and instantaneous gauges; it must
// not allocate, block, or write to anything the algorithms under observation
// read.
func New(capture func(*Sample), opts ...Option) *Sampler {
	s := &Sampler{
		capture:  capture,
		interval: DefaultInterval,
		stopc:    make(chan struct{}),
		donec:    make(chan struct{}),
	}
	WithSlots(DefaultSlots)(s)
	for _, o := range opts {
		o(s)
	}
	return s
}

// Interval reports the configured capture cadence.
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// Slots reports the ring capacity.
func (s *Sampler) Slots() int {
	if s == nil {
		return 0
	}
	return len(s.ring)
}

// Captures reports how many samples have been captured since creation (the
// ring retains only the newest Slots of them).
func (s *Sampler) Captures() uint64 {
	if s == nil {
		return 0
	}
	return s.pos.Load()
}

// Start launches the background capture goroutine. Starting an already
// started (or stopped) sampler is a no-op.
func (s *Sampler) Start() {
	if s == nil || !s.running.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(s.donec)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.CaptureNow()
			}
		}
	}()
}

// Stop halts the background goroutine and waits for it to exit. Safe to call
// multiple times and on a never-started sampler; the ring stays readable.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stopc) })
	if s.running.Load() {
		<-s.donec
	}
}

// CaptureNow takes one sample immediately: fills a cumulative Sample through
// the capture callback, converts counters to deltas against the previous
// capture, and publishes it into the ring. It is the body of every background
// tick and the manual-drive entry point for tests and benchmarks; concurrent
// calls serialize on an internal mutex (readers are unaffected).
func (s *Sampler) CaptureNow() {
	if s == nil {
		return
	}
	s.mu.Lock()
	cur, prev := &s.bufs[s.curIdx], &s.bufs[1-s.curIdx]
	*cur = Sample{}
	cur.TS = time.Now().UnixNano()
	s.capture(cur)
	out := &s.delta
	*out = *cur // cur stays the cumulative view and becomes the delta base
	if s.prevSet {
		out.DurNS = cur.TS - prev.TS
		out.deltas(prev)
	}
	s.curIdx = 1 - s.curIdx
	s.prevSet = true
	out.Seq = s.pos.Add(1)
	s.ring[(out.Seq-1)&s.mask].store(out, &s.scratch)
	if s.onSample != nil {
		s.onSample(out)
	}
	s.mu.Unlock()
}

// Snapshot returns the retained samples in capture order (oldest first).
// Slots being rewritten during the scan are skipped whole (seqlock), never
// returned torn. Cold path; allocates. Nil-safe.
func (s *Sampler) Snapshot() []Sample {
	if s == nil {
		return nil
	}
	out := make([]Sample, 0, len(s.ring))
	for i := range s.ring {
		if sm, ok := s.ring[i].load(); ok {
			if s.roleName != nil {
				for j := range sm.Hot {
					if sm.Hot[j].Addr != 0 {
						sm.Hot[j].Role = s.roleName(sm.Hot[j].RoleID)
					}
				}
			}
			out = append(out, sm)
		}
	}
	sortSamples(out)
	return out
}

// sortSamples orders by Seq ascending (insertion sort: the ring is nearly
// sorted already — at most one rotation point).
func sortSamples(ss []Sample) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].Seq < ss[j-1].Seq; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Stats is the sampler's own accounting (the lfrc_timeline_* meta-metrics).
type Stats struct {
	// IntervalNS is the capture cadence; Slots the ring capacity.
	IntervalNS int64 `json:"interval_ns"`
	Slots      int   `json:"slots"`

	// Captures counts samples ever taken; Retained is how many the ring
	// currently holds; Dropped is how many wraparound has discarded.
	Captures uint64 `json:"captures"`
	Retained int    `json:"retained"`
	Dropped  uint64 `json:"dropped"`
}

// Stats snapshots the sampler's accounting. Nil-safe.
func (s *Sampler) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	n := s.pos.Load()
	st := Stats{
		IntervalNS: int64(s.interval),
		Slots:      len(s.ring),
		Captures:   n,
	}
	if n > uint64(len(s.ring)) {
		st.Retained = len(s.ring)
		st.Dropped = n - uint64(len(s.ring))
	} else {
		st.Retained = int(n)
	}
	return st
}
