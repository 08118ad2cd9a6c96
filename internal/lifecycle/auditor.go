package lifecycle

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lfrc/internal/obs"
)

// Violation kinds reported by the Auditor. "Candidate" kinds are heuristic:
// the auditor runs online, without stopping the world, so a leak candidate
// may simply be a long-lived object. The definite kinds (use_after_free,
// double_free) are read directly off the ledger's event chain.
const (
	// KindLeakCandidate: a tracked live object whose reference count is
	// stuck above zero with no ledgered activity for N audit epochs — the
	// signature of a missing LFRCDestroy (the paper's no-leak guarantee
	// holds only if clients release the counts they own).
	KindLeakCandidate = "leak_candidate"

	// KindUseAfterFree: the ledger recorded rc-manipulating touches on an
	// object after its free event — the premature-free scenario LFRC
	// exists to prevent.
	KindUseAfterFree = "use_after_free"

	// KindDoubleFree: the heap rejected a second free of the same
	// incarnation (a free event with OK=false on the timeline).
	KindDoubleFree = "double_free"

	// KindStuckZombie: the object was pushed onto the deferred-
	// reclamation (zombie) list but has neither drained nor freed for N
	// audit epochs — reclamation has stalled.
	KindStuckZombie = "stuck_zombie"
)

// Violation is one flagged invariant breach, carrying the object's full
// ledger timeline for diagnosis.
type Violation struct {
	// Kind is one of the Kind* violation constants.
	Kind string `json:"kind"`

	// Ref is the offending object.
	Ref uint32 `json:"ref"`

	// Epoch is the audit epoch the violation was flagged in.
	Epoch uint64 `json:"epoch"`

	// Detail is a one-line human-readable diagnosis.
	Detail string `json:"detail"`

	// Timeline is the object's ledger timeline at flag time.
	Timeline Timeline `json:"timeline"`
}

// String renders the violation with its timeline, one entry per line.
func (v Violation) String() string {
	return fmt.Sprintf("lifecycle %s ref=%#x epoch=%d: %s\n%s",
		v.Kind, v.Ref, v.Epoch, v.Detail, v.Timeline.String())
}

// Probe is the view of the system the auditor cross-checks the ledger
// against: the live reference count and freed bit of an object, and the
// heap epoch, the pass clock it ticks once per pass.
type Probe interface {
	// RCOf returns the current reference count of the object at ref.
	RCOf(ref uint32) uint64

	// Freed reports whether the slot at ref has its freed bit set.
	Freed(ref uint32) bool

	// AdvanceEpoch ticks the reclamation epoch and returns the new value.
	AdvanceEpoch() uint64
}

// maxViolations bounds the violations an Auditor retains; the newest are
// kept.
const maxViolations = 256

// AuditOption configures an Auditor.
type AuditOption func(*auditConfig)

type auditConfig struct {
	interval   time.Duration
	leakEpochs int
}

// WithInterval sets the background pass interval (default 100ms).
func WithInterval(d time.Duration) AuditOption {
	return func(c *auditConfig) {
		if d > 0 {
			c.interval = d
		}
	}
}

// WithLeakEpochs sets how many consecutive idle audit epochs a live tracked
// object must sit at rc > 0 before it is flagged as a leak candidate (and a
// zombied object before it is flagged stuck). Default 3.
func WithLeakEpochs(n int) AuditOption {
	return func(c *auditConfig) {
		if n > 0 {
			c.leakEpochs = n
		}
	}
}

// Auditor is the online invariant auditor: it periodically sweeps the
// ledger's tracked objects, cross-checks them against the heap via the
// Probe, and flags violations of the paper's guarantees. Each new violation
// also captures a flight-recorder postmortem, so auditor findings surface
// through the existing Postmortems() pipeline.
type Auditor struct {
	led        *Ledger
	probe      Probe
	rec        *obs.Recorder
	interval   time.Duration
	leakEpochs int

	mu        sync.Mutex
	seen      map[uint32]*auditSeen
	flagged   map[flagKey]bool
	viols     []Violation
	violN     int // ring head when viols is full
	violTotal uint64
	passes    uint64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// auditSeen is the auditor's per-track memory across passes.
type auditSeen struct {
	start int64  // incarnation start TS (detects slot reuse)
	count uint64 // ledger entry count at last pass
	stale int    // consecutive passes with no new entries
}

// flagKey dedupes violations: one flag per (object incarnation, kind).
type flagKey struct {
	ref   uint32
	start int64
	kind  string
}

// NewAuditor creates an auditor over led, cross-checking via probe. rec may
// be nil (no postmortem capture). Call Start for background operation or
// RunPass for explicit single passes (tests, CLI).
func NewAuditor(led *Ledger, probe Probe, rec *obs.Recorder, opts ...AuditOption) *Auditor {
	cfg := auditConfig{
		interval:   100 * time.Millisecond,
		leakEpochs: 3,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return &Auditor{
		led:        led,
		probe:      probe,
		rec:        rec,
		interval:   cfg.interval,
		leakEpochs: cfg.leakEpochs,
		seen:       make(map[uint32]*auditSeen),
		flagged:    make(map[flagKey]bool),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Start launches the background pass loop. It is idempotent.
func (a *Auditor) Start() {
	if !a.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(a.done)
		Do("lfrc_auditor", func() {
			tick := time.NewTicker(a.interval)
			defer tick.Stop()
			for {
				select {
				case <-a.stop:
					return
				case <-tick.C:
					a.RunPass()
				}
			}
		})
	}()
}

// Stop halts the background loop and waits for it to exit. Safe to call
// multiple times, and before Start (in which case it only marks the auditor
// stopped).
func (a *Auditor) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	if a.started.Load() {
		<-a.done
	}
}

// Passes reports how many audit passes have run.
func (a *Auditor) Passes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.passes
}

// ViolationCount reports how many violations have ever been flagged,
// including any the retention ring has since overwritten.
func (a *Auditor) ViolationCount() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.violTotal
}

// Violations returns the retained violations, oldest first.
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, 0, len(a.viols))
	out = append(out, a.viols[a.violN:]...)
	out = append(out, a.viols[:a.violN]...)
	return out
}

// RunPass executes one audit pass: it ticks the heap epoch, sweeps
// every tracked object, and returns the violations newly flagged this pass.
// Safe to call concurrently with a running background loop (passes
// serialize on the auditor's mutex).
func (a *Auditor) RunPass() []Violation {
	epoch := a.probe.AdvanceEpoch()
	states := a.led.Live()

	a.mu.Lock()
	a.passes++
	var fresh []Violation
	live := make(map[uint32]bool, len(states))
	var retire []uint32
	for _, st := range states {
		tl := st.Timeline
		live[tl.Ref] = true
		sn := a.seen[tl.Ref]
		if sn == nil || sn.start != tl.Start {
			sn = &auditSeen{start: tl.Start}
			a.seen[tl.Ref] = sn
		}
		if st.Count == sn.count {
			sn.stale++
		} else {
			sn.count = st.Count
			sn.stale = 0
		}
		if tl.Freed {
			fresh = a.checkFreedLocked(tl, epoch, fresh)
			// A freed track that has gone quiet with no violations is
			// done telling its story: release its tracking slot.
			if sn.stale >= a.leakEpochs {
				retire = append(retire, tl.Ref)
			}
			continue
		}
		fresh = a.checkLiveLocked(tl, sn, epoch, fresh)
	}
	// Forget per-track state for refs no longer tracked.
	for ref := range a.seen {
		if !live[ref] {
			delete(a.seen, ref)
		}
	}
	a.mu.Unlock()

	for _, ref := range retire {
		a.led.Retire(ref)
	}
	for _, v := range fresh {
		if a.rec != nil {
			a.rec.CapturePostmortem(
				fmt.Sprintf("lifecycle %s: %s", v.Kind, v.Detail), v.Ref)
		}
	}
	return fresh
}

// flagLocked records a violation once per (incarnation, kind).
func (a *Auditor) flagLocked(tl Timeline, epoch uint64, kind, detail string, out []Violation) []Violation {
	k := flagKey{ref: tl.Ref, start: tl.Start, kind: kind}
	if a.flagged[k] {
		return out
	}
	a.flagged[k] = true
	a.violTotal++
	v := Violation{Kind: kind, Ref: tl.Ref, Epoch: epoch, Detail: detail, Timeline: tl}
	if len(a.viols) < maxViolations {
		a.viols = append(a.viols, v)
	} else {
		a.viols[a.violN] = v
		a.violN = (a.violN + 1) % maxViolations
	}
	return append(out, v)
}

// touchKind reports whether k manipulates an object's reference count or
// payload — the kinds that must never appear after the object's free event.
func touchKind(k obs.Kind) bool {
	switch k {
	case obs.KindLoad, obs.KindNaiveLoad, obs.KindStore, obs.KindCopy,
		obs.KindCAS, obs.KindDCAS, obs.KindDestroy:
		return true
	}
	return false
}

// checkFreedLocked examines a freed incarnation's chain for definite
// violations: rc touches after the free, and rejected double frees.
func (a *Auditor) checkFreedLocked(tl Timeline, epoch uint64, out []Violation) []Violation {
	freeTS := tl.End
	for _, e := range tl.Entries {
		if e.Kind == obs.KindFree && !e.OK {
			out = a.flagLocked(tl, epoch, KindDoubleFree, fmt.Sprintf(
				"free of ref=%#x gen=%d rejected: slot already freed (gid=%d)",
				tl.Ref, tl.Gen, e.GID), out)
		}
		if freeTS != 0 && e.TS > freeTS && touchKind(e.Kind) {
			out = a.flagLocked(tl, epoch, KindUseAfterFree, fmt.Sprintf(
				"%s on ref=%#x %.3fms after its free (gid=%d) — premature free or stale pointer",
				e.Kind, tl.Ref, float64(e.TS-freeTS)/1e6, e.GID), out)
		}
	}
	return out
}

// checkLiveLocked examines a live incarnation for stall-pattern candidates:
// stuck zombies and leak candidates. Both require the track to have been
// idle for leakEpochs consecutive passes, so actively used objects are never
// flagged no matter how long they live.
func (a *Auditor) checkLiveLocked(tl Timeline, sn *auditSeen, epoch uint64, out []Violation) []Violation {
	if sn.stale < a.leakEpochs {
		return out
	}
	// Zombied but never drained or freed?
	zombied := false
	for _, e := range tl.Entries {
		switch e.Kind {
		case obs.KindZombiePush:
			zombied = true
		case obs.KindZombieDrain, obs.KindFree:
			zombied = false
		}
	}
	if zombied {
		return a.flagLocked(tl, epoch, KindStuckZombie, fmt.Sprintf(
			"ref=%#x pushed to the zombie list but not drained for %d audit epochs",
			tl.Ref, sn.stale), out)
	}
	if a.probe.Freed(tl.Ref) {
		// Freed under us between the ledger snapshot and this check;
		// the free event will show on the next pass.
		return out
	}
	rc := a.probe.RCOf(tl.Ref)
	if rc == 0 {
		return out
	}
	age := time.Duration(0)
	if n := len(tl.Entries); n > 0 {
		age = time.Duration(tl.Entries[n-1].TS - tl.Start)
	}
	return a.flagLocked(tl, epoch, KindLeakCandidate, fmt.Sprintf(
		"ref=%#x rc stuck at %d with no activity for %d audit epochs (active span %v, %d ledgered events) — missing LFRCDestroy?",
		tl.Ref, rc, sn.stale, age, len(tl.Entries)), out)
}
