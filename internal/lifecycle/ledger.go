// Package lifecycle turns the flight recorder's aggregate event stream into
// per-object diagnosis: which object leaked, which LFRCCopy/LFRCDestroy pair
// went missing, which freed slot was touched after death.
//
// The paper's two correctness guarantees are per-object properties:
//
//  1. while pointers to an object exist its reference count stays positive
//     (no premature free), and
//  2. once no pointers remain the count reaches zero and the object is
//     reclaimed (no leak, for cycle-free garbage).
//
// Aggregate counters (PR 2's metrics) can show *that* these properties are
// being strained — zombies backing up, poisoned rc updates ticking — but not
// *which* object or *which* operation chain is responsible. This package
// adds three layers on top of the obs recorder:
//
//   - Ledger: a sampled per-ref lifecycle ledger. One in N allocations is
//     selected at birth; every subsequent event touching a selected object —
//     including operations the recorder's own 1-in-N op sampling would have
//     skipped — is appended to that object's timeline with goroutine
//     attribution (alloc → Load/Copy/Store/CAS/DCAS touches → rc
//     transitions → zombie push/drain → free → reuse).
//   - Auditor (auditor.go): a background goroutine cross-checking ledgered
//     objects against the paper's guarantees and flagging candidates.
//   - Chrome trace export (chrome.go): the ledger and recorder rendered as
//     trace_event JSON, one track per goroutine and one async span per
//     sampled object lifetime, loadable in Perfetto.
//
// The ledger is an obs.Sink: the recorder probes the ledger's tracked-ref
// set (obs.RefSet — one atomic load when nothing is tracked, a short
// lock-free probe otherwise) on the operation hot path and delivers OnEvent
// only for claimed refs, so cost scales with the object sampling rate, not
// the operation rate. A system without a ledger pays one nil check.
package lifecycle

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lfrc/internal/obs"
	"lfrc/internal/stripe"
)

// DefaultSampleEvery is the default object sampling interval: one in every
// 1024 allocations is ledgered.
const DefaultSampleEvery = 1024

// Defaults for the ledger's retention bounds.
const (
	defaultMaxTracked = 4096
	defaultMaxEvents  = 512

	// maxDone bounds retained completed timelines (objects whose slot was
	// reused, or tracks retired by the auditor); the newest are kept.
	maxDone = 256
)

// Option configures a Ledger.
type Option func(*config)

type config struct {
	every      uint64
	maxTracked int
	maxEvents  int
}

// WithSampleEvery ledgers every nth allocation: 1 tracks every object, 0
// installs the ledger with object sampling disabled (the hot paths pay only
// the sink check — the "disabled" mode of experiment O2). The default is
// DefaultSampleEvery.
func WithSampleEvery(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.every = uint64(n)
	}
}

// WithMaxTracked bounds the number of concurrently tracked objects; once
// full, new allocations are not ledgered until a tracked slot retires.
func WithMaxTracked(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxTracked = n
		}
	}
}

// WithMaxEvents bounds the entries retained per timeline. When a timeline
// overflows, the middle half is dropped (the head — birth — and the most
// recent tail both survive) and the drop is counted.
func WithMaxEvents(n int) Option {
	return func(c *config) {
		if n >= 8 {
			c.maxEvents = n
		}
	}
}

// Entry is one ledgered event on an object's timeline.
type Entry struct {
	// TS is the event time, nanoseconds since the Unix epoch.
	TS int64 `json:"ts"`

	// Kind classifies the event (obs kind names).
	Kind obs.Kind `json:"kind"`

	// OK is the operation outcome (CAS/DCAS success; for a free event,
	// false marks a rejected double free).
	OK bool `json:"ok"`

	// Retries counts failed attempts before the outcome.
	Retries uint32 `json:"retries,omitempty"`

	// Addr is the shared cell involved, 0 if none.
	Addr uint32 `json:"addr,omitempty"`

	// Old and New carry the event's transition: before/after reference
	// count for rc updates, generation/epoch stamps for alloc and free.
	Old uint32 `json:"old,omitempty"`
	New uint32 `json:"new,omitempty"`

	// GID is the runtime id of the goroutine that performed the
	// operation (see CurrentGID); names registered with Do attach in
	// trace export.
	GID uint64 `json:"gid"`
}

// String renders one entry for violation reports.
func (e Entry) String() string {
	s := fmt.Sprintf("%s gid=%d ok=%t", e.Kind, e.GID, e.OK)
	if e.Addr != 0 {
		s += fmt.Sprintf(" addr=%#x", e.Addr)
	}
	if e.Old != 0 || e.New != 0 {
		s += fmt.Sprintf(" %d->%d", e.Old, e.New)
	}
	if e.Retries != 0 {
		s += fmt.Sprintf(" retries=%d", e.Retries)
	}
	return s
}

// Timeline is one sampled object's event chain, from allocation until its
// slot is reused (or the present, for live objects).
type Timeline struct {
	// Ref is the object's word address.
	Ref uint32 `json:"ref"`

	// Gen is the slot generation of this incarnation (1 = first carve).
	Gen uint32 `json:"gen"`

	// Start is the allocation time, End the free time (0 while live).
	Start int64 `json:"start"`
	End   int64 `json:"end,omitempty"`

	// Freed reports whether this incarnation has been freed.
	Freed bool `json:"freed"`

	// Entries is the retained event chain, oldest first. When the
	// per-object bound was hit, Dropped counts entries compacted away
	// from the middle (birth and the latest tail are always kept).
	Entries []Entry `json:"entries"`
	Dropped uint64  `json:"dropped,omitempty"`
}

// String renders the timeline, one entry per line with offsets from birth.
func (tl Timeline) String() string {
	state := "live"
	if tl.Freed {
		state = "freed"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline ref=%#x gen=%d %s: %d entries", tl.Ref, tl.Gen, state, len(tl.Entries))
	if tl.Dropped > 0 {
		fmt.Fprintf(&b, " (+%d dropped)", tl.Dropped)
	}
	for _, e := range tl.Entries {
		fmt.Fprintf(&b, "\n  +%.3fms %s", float64(e.TS-tl.Start)/1e6, e.String())
	}
	return b.String()
}

// track is one live tracked object. Entries append under the per-object
// mutex; contention is limited to touches of that single sampled object.
type track struct {
	mu    sync.Mutex
	tl    Timeline
	count uint64 // entries ever appended, including compacted ones

	// lastAttr is the TS of the last rate-limited goroutine attribution
	// (see attrClass); atomic so the decision happens before the mutex.
	lastAttr atomic.Int64
}

// appendLocked appends one entry, compacting when the bound is hit: the
// first quarter (birth and early pointer establishment) and the last quarter
// (most recent activity) survive; the middle is dropped and counted.
func (t *track) appendLocked(e Entry, maxEvents int) {
	if len(t.tl.Entries) >= maxEvents {
		q := maxEvents / 4
		kept := make([]Entry, 0, maxEvents/2+1)
		kept = append(kept, t.tl.Entries[:q]...)
		dropped := len(t.tl.Entries) - q - q
		kept = append(kept, t.tl.Entries[len(t.tl.Entries)-q:]...)
		t.tl.Dropped += uint64(dropped)
		t.tl.Entries = kept
	}
	t.tl.Entries = append(t.tl.Entries, e)
	t.count++
}

func (t *track) snapshotLocked() Timeline {
	tl := t.tl
	tl.Entries = append([]Entry(nil), t.tl.Entries...)
	return tl
}

// TrackState is one live track as seen by the auditor: the timeline plus the
// total entry count (which advances even when retention compacts entries, so
// staleness detection cannot be fooled by the bound).
type TrackState struct {
	Timeline Timeline
	Count    uint64
}

// allocStripe is one padded allocation-sampling counter: every allocation
// ticks a counter, and a single shared one would be a contended cache line
// at allocation rate (experiment O2). Each stripe independently selects
// 1-in-every, so the overall selection rate is unchanged in expectation.
type allocStripe struct {
	n atomic.Uint64
	_ [56]byte
}

// Ledger is the sampled per-ref lifecycle ledger. Create with New; install
// on a recorder with obs.Recorder.SetSink. All methods are safe for
// concurrent use.
type Ledger struct {
	every      uint64
	maxTracked int
	maxEvents  int

	allocN      []allocStripe // striped allocation counters for 1-in-N selection
	tracked     atomic.Int64  // currently tracked objects
	sampledObjs atomic.Uint64 // objects ever selected
	skipped     atomic.Uint64 // selections skipped because the table was full

	tracks sync.Map    // uint32 ref -> *track
	refs   *obs.RefSet // hot-path membership gate, mirrors tracks' keys

	doneMu   sync.Mutex
	done     []Timeline // ring of completed timelines
	doneHead int
}

// New creates a Ledger.
func New(opts ...Option) *Ledger {
	cfg := config{
		every:      DefaultSampleEvery,
		maxTracked: defaultMaxTracked,
		maxEvents:  defaultMaxEvents,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return &Ledger{
		every:      cfg.every,
		maxTracked: cfg.maxTracked,
		maxEvents:  cfg.maxEvents,
		refs:       obs.NewRefSet(cfg.maxTracked),
		allocN:     make([]allocStripe, stripe.Clamp(0, runtime.GOMAXPROCS(0))),
	}
}

// SampleEvery reports the object sampling interval (0 = disabled).
func (l *Ledger) SampleEvery() int {
	if l == nil {
		return 0
	}
	return int(l.every)
}

// TrackedCount reports how many objects are currently tracked.
func (l *Ledger) TrackedCount() int64 {
	if l == nil {
		return 0
	}
	return l.tracked.Load()
}

// SampledObjects reports how many objects have ever been selected.
func (l *Ledger) SampledObjects() uint64 {
	if l == nil {
		return 0
	}
	return l.sampledObjs.Load()
}

// SkippedFull reports selections skipped because the track table was full.
func (l *Ledger) SkippedFull() uint64 {
	if l == nil {
		return 0
	}
	return l.skipped.Load()
}

// Tracked implements obs.Sink: it exposes the set of currently tracked refs
// as the recorder's hot-path gate.
func (l *Ledger) Tracked() *obs.RefSet {
	if l == nil {
		return nil
	}
	return l.refs
}

// Wants reports whether ref is currently tracked — the same probe the
// recorder performs through Tracked().
func (l *Ledger) Wants(ref uint32) bool {
	if l == nil {
		return false
	}
	return l.refs.Has(ref)
}

// OnEvent implements obs.Sink. Alloc events arrive for every object (the
// recorder always offers them) and carry the track/ignore decision; all
// other events arrive only for tracked refs. Events whose operation was not
// op-sampled carry TS 0 and are stamped here, so the timestamp is only paid
// for events the ledger keeps.
func (l *Ledger) OnEvent(e obs.Event) {
	if e.Kind == obs.KindAlloc {
		if l.refs.Has(e.Ref) {
			if v, ok := l.tracks.Load(e.Ref); ok {
				// The slot was reused: this tracked incarnation is over.
				l.retire(e.Ref, v.(*track))
			}
		}
		if l.every == 0 || l.allocN[stripe.Hint(len(l.allocN))].n.Add(1)%l.every != 0 {
			return
		}
		if l.tracked.Load() >= int64(l.maxTracked) {
			l.skipped.Add(1)
			return
		}
		if e.TS == 0 {
			e.TS = time.Now().UnixNano()
		}
		t := &track{tl: Timeline{Ref: e.Ref, Gen: e.Old, Start: e.TS}}
		birth := entryOf(e)
		birth.GID = CurrentGID() // births are always attributed
		t.appendLocked(birth, l.maxEvents)
		l.tracks.Store(e.Ref, t)
		l.refs.Add(e.Ref)
		l.tracked.Add(1)
		l.sampledObjs.Add(1)
		return
	}
	v, ok := l.tracks.Load(e.Ref)
	if !ok {
		return
	}
	t := v.(*track)
	en := entryOf(e)
	switch attrClass(e) {
	case attrAlways:
		en.GID = CurrentGID()
	case attrRated:
		if last := t.lastAttr.Load(); en.TS-last >= attrInterval &&
			t.lastAttr.CompareAndSwap(last, en.TS) {
			en.GID = CurrentGID()
		}
	}
	t.mu.Lock()
	t.appendLocked(en, l.maxEvents)
	if e.Kind == obs.KindFree && e.OK {
		t.tl.Freed = true
		t.tl.End = en.TS
	}
	t.mu.Unlock()
}

// entryOf converts a flight event into a ledger entry with no goroutine
// attribution; OnEvent attaches one per attrClass (it runs on the goroutine
// that performed the operation).
func entryOf(e obs.Event) Entry {
	ts := e.TS
	if ts == 0 {
		ts = time.Now().UnixNano()
	}
	return Entry{
		TS:      ts,
		Kind:    e.Kind,
		OK:      e.OK,
		Retries: e.Retries,
		Addr:    e.Addr,
		Old:     e.Old,
		New:     e.New,
	}
}

// Goroutine-attribution classes. CurrentGID walks the runtime.Stack header
// (microseconds), so for a *hot* sampled object unconditional attribution
// would dominate the tap's cost (experiment O2). The economy:
//
//	attrAlways  rare or diagnostic events — allocator traffic, zombie
//	            parking, and any failed or retried operation — always name
//	            their goroutine.
//	attrRated   successful count transitions (copy/destroy/store/CAS/DCAS)
//	            are attributed at most once per attrInterval per track: the
//	            transition chain stays complete, only the gid column thins
//	            on hot objects.
//	attrNever   plain successful reads — the bulk of a hot object's touch
//	            volume, and the one kind that never moves the count — stay
//	            unattributed (GID 0).
const (
	attrNever = iota
	attrRated
	attrAlways
)

// attrInterval is the minimum spacing of rate-limited attributions per track.
const attrInterval = int64(100 * time.Microsecond)

func attrClass(e obs.Event) int {
	if !e.OK || e.Retries != 0 {
		return attrAlways
	}
	switch e.Kind {
	case obs.KindLoad, obs.KindNaiveLoad:
		return attrNever
	case obs.KindCopy, obs.KindDestroy, obs.KindStore, obs.KindCAS, obs.KindDCAS:
		return attrRated
	}
	return attrAlways
}

// retire finalizes a live track into the completed ring.
func (l *Ledger) retire(ref uint32, t *track) {
	if _, loaded := l.tracks.LoadAndDelete(ref); !loaded {
		return
	}
	l.refs.Remove(ref)
	l.tracked.Add(-1)
	t.mu.Lock()
	tl := t.snapshotLocked()
	t.mu.Unlock()
	l.doneMu.Lock()
	if len(l.done) < maxDone {
		l.done = append(l.done, tl)
	} else {
		l.done[l.doneHead] = tl
		l.doneHead = (l.doneHead + 1) % maxDone
	}
	l.doneMu.Unlock()
}

// Retire removes ref from the live table and moves its timeline to the
// completed ring; the auditor uses it to release capacity held by freed
// tracks it has finished examining. It reports whether ref was tracked.
func (l *Ledger) Retire(ref uint32) bool {
	v, ok := l.tracks.Load(ref)
	if !ok {
		return false
	}
	l.retire(ref, v.(*track))
	return true
}

// Timeline returns the most recent timeline for ref: the live track if one
// exists, else the newest completed incarnation.
func (l *Ledger) Timeline(ref uint32) (Timeline, bool) {
	if l == nil {
		return Timeline{}, false
	}
	if v, ok := l.tracks.Load(ref); ok {
		t := v.(*track)
		t.mu.Lock()
		tl := t.snapshotLocked()
		t.mu.Unlock()
		return tl, true
	}
	l.doneMu.Lock()
	defer l.doneMu.Unlock()
	for i := len(l.done) - 1; i >= 0; i-- {
		idx := (l.doneHead + i) % len(l.done)
		if l.done[idx].Ref == ref {
			return l.done[idx], true
		}
	}
	return Timeline{}, false
}

// Live snapshots every live track, ordered by ref.
func (l *Ledger) Live() []TrackState {
	if l == nil {
		return nil
	}
	var out []TrackState
	l.tracks.Range(func(_, v any) bool {
		t := v.(*track)
		t.mu.Lock()
		out = append(out, TrackState{Timeline: t.snapshotLocked(), Count: t.count})
		t.mu.Unlock()
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Timeline.Ref < out[j].Timeline.Ref })
	return out
}

// Completed returns the retained completed timelines, oldest first.
func (l *Ledger) Completed() []Timeline {
	if l == nil {
		return nil
	}
	l.doneMu.Lock()
	defer l.doneMu.Unlock()
	out := make([]Timeline, 0, len(l.done))
	out = append(out, l.done[l.doneHead:]...)
	out = append(out, l.done[:l.doneHead]...)
	return out
}
