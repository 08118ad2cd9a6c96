// Package contend is the DCAS contention observatory: it aggregates the
// reproduction's retry traffic into per-cell contention profiles.
//
// Every one of the six LFRC pointer operations loops on DCAS (or CAS), and
// the paper's whole performance argument rests on how often those loops
// retry — yet the paper (§5) only asserts the safety shape of the loops and
// leaves "where do retries concentrate and what do they cost" unmeasured.
// The flight recorder (package obs) made individual events visible; this
// package answers the aggregate question: *which memory cells are hot*, by
// operation kind and cell role (deque hat, anchor word, reference-count
// word, node link), and how many nanoseconds of work the retries wasted.
//
// The table is fed from two directions:
//
//   - Failed-attempt attribution (exact, always on while installed): the
//     retry loops in internal/core and internal/snark report every failed
//     DCAS/CAS attempt, split across the two comparands by re-reading them
//     (dcas.Attribute) so the blame lands on the cell that actually moved.
//     Recording is a handful of atomic adds on the failure path — a path
//     that just lost a race and is about to spin anyway.
//   - Wasted-work timing (sampled): the flight recorder's aggregation tap
//     delivers each op-sampled event together with its measured latency;
//     the retried fraction of that latency, scaled by the op-sampling
//     interval, estimates the total nanoseconds burned re-executing loop
//     bodies on the event's cell.
//
// Storage is a lock-free striped hot-cell table: per-stripe open-addressed
// arrays of cache-padded entries keyed by (cell address, op kind), claimed
// with one CAS and updated with plain atomic adds, merged at snapshot time.
// A decaying activity score per entry drives the top-K "heatmap", so the
// report ranks what is hot *now*, not what was hot an hour ago.
//
// Read it back three ways: Report (human-readable, served on
// /debug/lfrc/contention), Prometheus series (root metrics.go), and a
// pprof-compatible profile (WriteProfile, served on
// /debug/lfrc/contention.pb.gz) whose samples are weighted by wasted
// nanoseconds so `go tool pprof` renders the contention flame directly.
package contend

import (
	"runtime"
	"sync/atomic"
	"time"

	"lfrc/internal/obs"
	"lfrc/internal/stripe"
)

// Role classifies what a contended cell *is* inside the structure that owns
// it. Roles make the profile legible: "the right hat is hot" is actionable,
// "cell 0x2c1 is hot" is not.
type Role uint8

// Cell roles, from generic to specific. Recording sites pass the most
// specific role they know; a Declare'd role (structure anchors register
// their cells at construction) wins over a generic one.
const (
	RoleUnknown  Role = iota
	RolePointer       // a shared pointer cell with no more specific identity
	RoleRC            // an object's reference-count word
	RoleNodeLink      // a deque/queue node's left or right neighbour link
	RoleLeftHat       // the Snark anchor's LeftHat word
	RoleRightHat      // the Snark anchor's RightHat word
	RoleAnchor        // another anchor word (e.g. the Dummy pointer)
	RoleRCExt         // a pointer cell's colocated external count (split RC strategy weight stash)

	numRoles
)

// String implements fmt.Stringer.
func (r Role) String() string {
	names := [...]string{
		RoleUnknown:  "unknown",
		RolePointer:  "pointer",
		RoleRC:       "rc",
		RoleNodeLink: "node_link",
		RoleLeftHat:  "left_hat",
		RoleRightHat: "right_hat",
		RoleAnchor:   "anchor",
		RoleRCExt:    "rc_ext",
	}
	if int(r) < len(names) {
		return names[r]
	}
	return "unknown"
}

// specificity orders roles for merging: higher wins when the same cell is
// recorded under different roles (a hat cell reached through a generic
// pointer load keeps its hat identity).
func (r Role) specificity() int {
	switch r {
	case RoleUnknown:
		return 0
	case RolePointer:
		return 1
	default:
		return 2
	}
}

// entry is one (cell, op-kind) accumulator. The key word doubles as the
// claim word: 0 is empty, and a single CAS publishes the key before any
// counter is touched. Counters are monotonic except hot, which Decay halves.
// Padded to its own cache-line neighbourhood so probing one hot entry does
// not false-share with the next.
type entry struct {
	key      atomic.Uint64 // addr<<8 | kind; 0 = empty
	role     atomic.Uint32 // Role, monotonically upgraded by specificity
	attempts atomic.Int64  // DCAS/CAS attempts involving this cell
	failures atomic.Int64  // failed attempts attributed to this cell
	ops      atomic.Int64  // completed operations resolved on this cell
	retrySum atomic.Int64  // total retry-chain length across those ops
	retryMax atomic.Int64  // longest observed retry chain
	wastedNS atomic.Int64  // estimated ns burned in failed attempts (scaled)
	hot      atomic.Int64  // decaying activity score (failures + wasted ns)
	_        [48]byte
}

func key(addr uint32, kind obs.Kind) uint64 {
	return uint64(addr)<<8 | uint64(kind)
}

// tStripe is one stripe of the table: a private open-addressed entry array.
// Goroutines hash to stripes the same way the allocator shards do, so two
// goroutines hammering the same hot cell usually update different stripes'
// entries; snapshots merge by key.
type tStripe struct {
	entries []entry

	// used is the append-only directory of claimed entry indices, each
	// stored as index+1 (0 = slot reserved but not yet published). Entries
	// are claimed once and never evicted, so the directory only grows.
	// TopInto walks it instead of scanning the whole entry array: the
	// timeline's per-interval capture then costs proportional to occupied
	// entries (typically dozens), not table capacity (1024 padded entries
	// per stripe — half a megabyte of cache lines at default geometry).
	used  []atomic.Int32
	usedN atomic.Int32
}

// declaredRole is one structure-registered cell identity (see Declare).
type declaredRole struct {
	addr atomic.Uint32
	role atomic.Uint32
}

// maxDeclared bounds the declared-role registry; each live structure
// declares a handful of anchor cells.
const maxDeclared = 256

// Table is the striped hot-cell table. The zero value is not usable; call
// New. A nil *Table is a valid disabled observatory: every recording method
// is a cheap no-op, so callers embed one pointer and never branch twice.
type Table struct {
	stripes []tStripe
	mask    uint64 // per-stripe capacity - 1

	declared  [maxDeclared]declaredRole
	declaredN atomic.Int32

	// opScale multiplies sampled wasted-ns contributions so estimates
	// approximate the un-sampled total (set to the recorder's op-sampling
	// interval at wiring time; 1 when every op is sampled).
	opScale atomic.Int64

	dropped atomic.Int64 // records lost because a stripe's table was full

	// ewma holds a per-op-kind EWMA of observed per-attempt latency (ns),
	// ewmaAll the cross-kind estimate. They back the snapshot-time
	// wasted-ns fallback: with sparse op sampling (one CPU, 1-in-64
	// sampling) the recorder can easily keep no latency sample for any
	// retried attempt of a kind, which used to leave every cell's
	// wasted_ns at exactly 0 while failures were plainly
	// being counted. Indexed by the kind's low byte, matching the key
	// encoding.
	ewma    [256]atomic.Int64
	ewmaAll atomic.Int64

	// Decay state for the heatmap score: lastDecay is unix-nanos of the
	// last applied halving, halfLife the interval between halvings.
	lastDecay atomic.Int64
	halfLife  time.Duration

	now func() int64 // time source, swappable in tests
}

// Option configures a Table.
type Option func(*Table)

// WithCapacity sets each stripe's entry capacity, rounded up to a power of
// two. The default is 1024 entries per stripe; the table tracks distinct
// (cell, op) pairs, so the default covers thousands of simultaneously hot
// cells before Dropped grows.
func WithCapacity(n int) Option {
	return func(t *Table) {
		size := 1
		for size < n {
			size <<= 1
		}
		t.mask = uint64(size - 1)
	}
}

// WithStripes sets the stripe count; the default is GOMAXPROCS, clamped
// like every other striped facility (package stripe).
func WithStripes(n int) Option {
	return func(t *Table) { t.stripes = make([]tStripe, stripe.Clamp(n, len(t.stripes))) }
}

// WithHalfLife sets the heatmap score's half-life (how fast "hot" cools).
// The default is 30s; 0 disables decay entirely.
func WithHalfLife(d time.Duration) Option {
	return func(t *Table) { t.halfLife = d }
}

// New creates a Table.
func New(opts ...Option) *Table {
	t := &Table{
		stripes:  make([]tStripe, stripe.Clamp(0, defaultStripes())),
		mask:     1024 - 1,
		halfLife: 30 * time.Second,
		now:      func() int64 { return time.Now().UnixNano() },
	}
	t.opScale.Store(1)
	for _, o := range opts {
		o(t)
	}
	for i := range t.stripes {
		t.stripes[i].entries = make([]entry, t.mask+1)
		t.stripes[i].used = make([]atomic.Int32, t.mask+1)
	}
	t.lastDecay.Store(t.now())
	return t
}

// defaultStripes is the stripe-count fallback: one per schedulable thread.
func defaultStripes() int { return runtime.GOMAXPROCS(0) }

// SetOpScale records the flight recorder's op-sampling interval so sampled
// wasted-ns contributions can be scaled up to estimate the total. Values
// below 1 are clamped to 1. Called once at wiring time.
func (t *Table) SetOpScale(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.opScale.Store(int64(n))
}

// OpScale reports the configured wasted-ns scaling factor.
func (t *Table) OpScale() int {
	if t == nil {
		return 1
	}
	return int(t.opScale.Load())
}

// Declare registers a cell's structural identity: structures call it at
// construction for their long-lived anchor cells (the Snark hats and Dummy
// word), so that even generic recording sites (core's Load loop sees only
// "a pointer cell") profile those cells under their real names. Declaring
// is idempotent per address; the registry is bounded and extra declarations
// beyond its capacity are dropped silently (they only cost specificity).
func (t *Table) Declare(addr uint32, role Role) {
	if t == nil || addr == 0 {
		return
	}
	n := int(t.declaredN.Load())
	for i := 0; i < n && i < maxDeclared; i++ {
		if t.declared[i].addr.Load() == addr {
			t.declared[i].role.Store(uint32(role))
			return
		}
	}
	for {
		n := t.declaredN.Load()
		if int(n) >= maxDeclared {
			return
		}
		if t.declaredN.CompareAndSwap(n, n+1) {
			// Publish role before addr: lookups key on addr.
			t.declared[n].role.Store(uint32(role))
			t.declared[n].addr.Store(addr)
			return
		}
	}
}

// declaredRoleOf returns the registered role for addr, or RoleUnknown.
func (t *Table) declaredRoleOf(addr uint32) Role {
	n := int(t.declaredN.Load())
	if n > maxDeclared {
		n = maxDeclared
	}
	for i := 0; i < n; i++ {
		if t.declared[i].addr.Load() == addr {
			return Role(t.declared[i].role.Load())
		}
	}
	return RoleUnknown
}

// find locates (or claims) the calling stripe's entry for (addr, kind). It
// returns nil when the stripe's table is full (recorded in Dropped: the
// profile degrades by omission, never by blocking).
func (t *Table) find(addr uint32, kind obs.Kind, role Role) *entry {
	k := key(addr, kind)
	st := &t.stripes[stripe.Hint(len(t.stripes))]
	// Fibonacci hash, linear probe.
	h := (k * 0x9E3779B97F4A7C15) >> 13
	for i := uint64(0); i <= t.mask; i++ {
		e := &st.entries[(h+i)&t.mask]
		got := e.key.Load()
		if got == k {
			t.upgradeRole(e, addr, role)
			return e
		}
		if got == 0 {
			if e.key.CompareAndSwap(0, k) {
				// Publish the claim in the stripe's occupancy
				// directory (index+1; readers skip unpublished 0s).
				if slot := st.usedN.Add(1) - 1; int(slot) < len(st.used) {
					st.used[slot].Store(int32((h+i)&t.mask) + 1)
				}
				t.upgradeRole(e, addr, role)
				return e
			}
			if e.key.Load() == k { // lost the claim race to the same key
				t.upgradeRole(e, addr, role)
				return e
			}
		}
	}
	t.dropped.Add(1)
	return nil
}

// upgradeRole settles an entry's role: a Declare'd identity wins, then the
// most specific role any recording site has passed.
func (t *Table) upgradeRole(e *entry, addr uint32, role Role) {
	if d := t.declaredRoleOf(addr); d != RoleUnknown {
		role = d
	}
	for {
		cur := Role(e.role.Load())
		if role.specificity() <= cur.specificity() {
			return
		}
		if e.role.CompareAndSwap(uint32(cur), uint32(role)) {
			return
		}
	}
}

// Attempt records one failed DCAS/CAS attempt by op kind involving cells a0
// (role r0) and, when nonzero and distinct, a1 (role r1). failed0/failed1
// report which comparand actually mismatched (dcas.Attribute); a failure
// with neither — the cell changed and changed back between the attempt and
// the re-read — is charged to a0, the operation's primary cell. Nil-safe.
func (t *Table) Attempt(op obs.Kind, a0 uint32, r0 Role, a1 uint32, r1 Role, failed0, failed1 bool) {
	if t == nil {
		return
	}
	if !failed0 && !failed1 {
		failed0 = true // transient: blame the primary cell
	}
	if a0 != 0 {
		if e := t.find(a0, op, r0); e != nil {
			e.attempts.Add(1)
			if failed0 {
				e.failures.Add(1)
				e.hot.Add(1)
			}
		}
	}
	if a1 != 0 && a1 != a0 {
		if e := t.find(a1, op, r1); e != nil {
			e.attempts.Add(1)
			if failed1 {
				e.failures.Add(1)
				e.hot.Add(1)
			}
		}
	}
}

// OpDone records one completed operation's final, successful attempt: the
// attempt is counted on both cells, and the operation's retry-chain length
// lands on a0, the cell the operation resolved on. Nil-safe.
func (t *Table) OpDone(op obs.Kind, a0 uint32, r0 Role, a1 uint32, r1 Role, retries uint32) {
	if t == nil {
		return
	}
	if a0 != 0 {
		if e := t.find(a0, op, r0); e != nil {
			e.attempts.Add(1)
			e.ops.Add(1)
			if retries > 0 {
				e.retrySum.Add(int64(retries))
				for {
					m := e.retryMax.Load()
					if int64(retries) <= m || e.retryMax.CompareAndSwap(m, int64(retries)) {
						break
					}
				}
			}
		}
	}
	if a1 != 0 && a1 != a0 {
		if e := t.find(a1, op, r1); e != nil {
			e.attempts.Add(1)
		}
	}
}

// Aggregate implements the flight recorder's aggregation tap (obs.Agg): it
// receives every op-sampled event with its measured latency and charges the
// retried fraction of that latency — scaled by the op-sampling interval —
// to the event's cell as wasted work. Events with no retries or no cell
// carry no wasted work and are dropped immediately.
func (t *Table) Aggregate(e obs.Event, latNS int64) {
	if t == nil || latNS <= 0 {
		return
	}
	// Every delivered event — retried or not — feeds the per-kind EWMA of
	// per-attempt latency (an op that retried k times made k+1 attempts).
	// The EWMA is the snapshot-time fallback for cells whose failures were
	// counted but whose retried attempts the op sampler never timed.
	// Racy read-modify-write is fine: it is a smoothing estimator.
	if per := latNS / (int64(e.Retries) + 1); per > 0 {
		ew := &t.ewma[uint8(e.Kind)]
		if old := ew.Load(); old == 0 {
			ew.Store(per)
		} else {
			ew.Store(old + (per-old)/8)
		}
		if old := t.ewmaAll.Load(); old == 0 {
			t.ewmaAll.Store(per)
		} else {
			t.ewmaAll.Store(old + (per-old)/8)
		}
	}
	if e.Retries == 0 || e.Addr == 0 {
		return
	}
	// A loop that succeeded on attempt k+1 spent ~k/(k+1) of its time on
	// the k discarded iterations.
	wasted := latNS * int64(e.Retries) / (int64(e.Retries) + 1)
	wasted *= t.opScale.Load()
	if en := t.find(e.Addr, e.Kind, RoleUnknown); en != nil {
		en.wastedNS.Add(wasted)
		en.hot.Add(wasted)
	}
}

// retryEWMA reports the per-attempt latency estimate for kind in
// nanoseconds: the kind's own EWMA when it has one, else the cross-kind
// estimate, else 0 (nothing sampled yet).
func (t *Table) retryEWMA(k obs.Kind) int64 {
	if v := t.ewma[uint8(k)].Load(); v > 0 {
		return v
	}
	return t.ewmaAll.Load()
}

// Dropped reports how many records were lost to full stripes.
func (t *Table) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// decayTick applies any halvings the half-life schedule owes. It runs on
// the snapshot path (cold); recording paths never touch it.
func (t *Table) decayTick() {
	if t.halfLife <= 0 {
		return
	}
	now := t.now()
	for {
		last := t.lastDecay.Load()
		n := (now - last) / int64(t.halfLife)
		if n <= 0 {
			return
		}
		if n > 62 {
			n = 62
		}
		if !t.lastDecay.CompareAndSwap(last, last+n*int64(t.halfLife)) {
			continue // another snapshot took the tick
		}
		for i := range t.stripes {
			es := t.stripes[i].entries
			for j := range es {
				if es[j].key.Load() == 0 {
					continue
				}
				// Racy halving is fine: hot is a ranking heuristic.
				es[j].hot.Store(es[j].hot.Load() >> uint(n))
			}
		}
		return
	}
}
