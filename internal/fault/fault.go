// Package fault is the deterministic fault-injection subsystem: it forces
// the nasty interleavings the LFRC proofs are about — DCAS/CAS failures at
// linearization points, allocation failure mid-operation, stalls inside the
// structure retry loops — on demand and reproducibly.
//
// Every instrumented site in the codebase is a declared injection Point.
// A Plan assigns each point a Rule (probabilistic, every-Nth, or scripted
// exact attempt ordinals, optionally bounded and optionally delaying), and an
// Injector evaluates the plan. The design constraints:
//
//   - Deterministic: whether attempt n at point p fires depends only on
//     (seed, p, n) — never on wall time, goroutine identity, or scheduling.
//     Two runs with the same seed and plan produce the same firing schedule
//     at every point, which is what makes a chaos failure replayable. The
//     pure predicate is exposed as Injector.Would.
//   - Zero overhead when disabled: a nil *Injector is valid and fully
//     disabled; every hot-path call is one nil check plus (when an injector
//     is installed) one per-point bool load. Sites on uninstrumented systems
//     pay only the nil check.
//   - Honest semantics: an injected DCAS/CAS failure makes the caller take
//     exactly the retry/compensation path a genuine failure takes, so the
//     paths the paper's §4 proofs cover are exercised, not simulated.
//
// The firing log (Schedule) retains the most recent firings so postmortems
// can capture the injected schedule for replay.
package fault

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Point is a declared injection site.
type Point uint8

// Injection points. The core points cover the LFRC operations' CAS/DCAS
// attempts (Copy and Destroy inject through CoreAddToRC, the count-update
// loop they share); the reclaim points cover the zombie stack's park/drain
// CASes; the structure points cover each retry loop at the
// spot between its loads and its linearizing CAS/DCAS — the window the
// proofs close; the mem points cover allocation failure and allocator
// slow-path forcing.
const (
	CoreLoad       Point = iota // DCAS inside LFRCLoad
	CoreStore                   // CAS inside LFRCStore
	CoreStoreAlloc              // CAS inside LFRCStoreAlloc
	CoreCAS                     // LFRCCAS attempt
	CoreDCAS                    // LFRCDCAS / DCASMixed attempt
	CoreAddToRC                 // CAS inside add_to_rc (Copy/Destroy inject here)
	ReclaimPush                 // zombie-stack push CAS
	ReclaimDrain                // zombie-stack pop CAS
	SnarkPushLeft               // left-hat DCAS in Deque.PushLeft
	SnarkPushRight              // right-hat DCAS in Deque.PushRight
	SnarkPopLeft                // left-hat DCAS in Deque.PopLeft
	SnarkPopRight               // right-hat DCAS in Deque.PopRight
	QueueEnqueue                // next-link CAS in Queue.Enqueue
	QueueDequeue                // head CAS in Queue.Dequeue
	StackPush                   // top CAS in Stack.Push
	StackPop                    // top CAS in Stack.Pop
	SetInsert                   // link CAS/DCAS in List.Insert
	SetDelete                   // dead-mark CAS in List.Delete
	SetPopMin                   // dead-mark CAS in List.PopMin
	MemAlloc                    // Alloc fails with ErrOutOfMemory
	MemAllocSlow                // Alloc skips the shard-local free list

	NumPoints
)

// pointNames maps points to their stable spec names (see Parse).
var pointNames = [NumPoints]string{
	CoreLoad:       "core.load",
	CoreStore:      "core.store",
	CoreStoreAlloc: "core.storealloc",
	CoreCAS:        "core.cas",
	CoreDCAS:       "core.dcas",
	CoreAddToRC:    "core.addtorc",
	ReclaimPush:    "reclaim.push",
	ReclaimDrain:   "reclaim.drain",
	SnarkPushLeft:  "snark.pushleft",
	SnarkPushRight: "snark.pushright",
	SnarkPopLeft:   "snark.popleft",
	SnarkPopRight:  "snark.popright",
	QueueEnqueue:   "queue.enqueue",
	QueueDequeue:   "queue.dequeue",
	StackPush:      "stack.push",
	StackPop:       "stack.pop",
	SetInsert:      "set.insert",
	SetDelete:      "set.delete",
	SetPopMin:      "set.popmin",
	MemAlloc:       "mem.alloc",
	MemAllocSlow:   "mem.alloc.slow",
}

// String implements fmt.Stringer.
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", int(p))
}

// ParsePoint resolves a spec name to its Point.
func ParsePoint(s string) (Point, error) {
	for p, n := range pointNames {
		if n == s {
			return Point(p), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown injection point %q", s)
}

// Rule is one point's injection schedule. Exactly one trigger — Prob, EveryN
// or Nth — decides whether attempt n fires; Limit bounds the total number of
// firings; DelayNS (or Gosched) stalls the firing thread; Stall makes a
// firing delay-only instead of forcing a failure.
type Rule struct {
	// Prob fires each attempt independently with this probability,
	// hash-derived from (seed, point, attempt ordinal) so the schedule is
	// seed-reproducible.
	Prob float64

	// EveryN fires every Nth attempt (n % EveryN == 0).
	EveryN uint64

	// Nth fires on exactly these attempt ordinals (1-based, sorted).
	Nth []uint64

	// Limit caps the number of firings (0 = unlimited). Under concurrent
	// attempts the cutoff may overshoot by in-flight attempts; schedules
	// that must be exact use Nth.
	Limit uint64

	// DelayNS sleeps the firing thread this long. With Gosched the thread
	// instead yields its processor — the cheap way to open a race window.
	DelayNS int64
	Gosched bool

	// Stall makes a firing delay-only: the attempt proceeds normally
	// after the stall instead of being forced to fail.
	Stall bool

	// threshold is Prob as a fixed-point uint64 fraction of 2^64.
	threshold uint64
}

// enabled reports whether the rule has any trigger.
func (r *Rule) enabled() bool {
	return r.Prob > 0 || r.EveryN > 0 || len(r.Nth) > 0
}

// fires is the pure decision predicate for attempt n under seed.
func (r *Rule) fires(seed uint64, p Point, n uint64) bool {
	if len(r.Nth) > 0 {
		i := sort.Search(len(r.Nth), func(i int) bool { return r.Nth[i] >= n })
		return i < len(r.Nth) && r.Nth[i] == n
	}
	if r.EveryN > 0 {
		return n%r.EveryN == 0
	}
	if r.threshold > 0 {
		return mix(seed^(uint64(p)+1)*0x9E3779B97F4A7C15^n*0xD1B54A32D192ED03) < r.threshold
	}
	return false
}

// mix is the splitmix64 finalizer: a fast, well-distributed 64-bit hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Plan assigns rules to injection points. The zero Plan injects nothing.
type Plan struct {
	rules [NumPoints]Rule
}

// Set installs r at point p (replacing any previous rule).
func (pl *Plan) Set(p Point, r Rule) {
	if r.Prob < 0 {
		r.Prob = 0
	}
	if r.Prob > 1 {
		r.Prob = 1
	}
	if r.Prob >= 1 {
		r.threshold = math.MaxUint64
	} else {
		r.threshold = uint64(r.Prob * float64(1<<63) * 2)
	}
	sort.Slice(r.Nth, func(i, j int) bool { return r.Nth[i] < r.Nth[j] })
	pl.rules[p] = r
}

// Rule returns the rule installed at p.
func (pl *Plan) Rule(p Point) Rule { return pl.rules[p] }

// Empty reports whether no point has a trigger.
func (pl *Plan) Empty() bool {
	if pl == nil {
		return true
	}
	for i := range pl.rules {
		if pl.rules[i].enabled() {
			return true == false
		}
	}
	return true
}

// String renders the plan in the spec syntax Parse accepts.
func (pl *Plan) String() string {
	if pl == nil {
		return ""
	}
	var parts []string
	for i := range pl.rules {
		r := &pl.rules[i]
		if !r.enabled() {
			continue
		}
		var ds []string
		switch {
		case len(r.Nth) > 0:
			ns := make([]string, len(r.Nth))
			for j, n := range r.Nth {
				ns[j] = strconv.FormatUint(n, 10)
			}
			ds = append(ds, "nth="+strings.Join(ns, "+"))
		case r.EveryN > 0:
			ds = append(ds, "every="+strconv.FormatUint(r.EveryN, 10))
		default:
			ds = append(ds, "p="+strconv.FormatFloat(r.Prob, 'g', -1, 64))
		}
		if r.Limit > 0 {
			ds = append(ds, "limit="+strconv.FormatUint(r.Limit, 10))
		}
		if r.DelayNS > 0 {
			ds = append(ds, "delay="+time.Duration(r.DelayNS).String())
		}
		if r.Gosched {
			ds = append(ds, "gosched")
		}
		if r.Stall {
			ds = append(ds, "stall")
		}
		parts = append(parts, Point(i).String()+":"+strings.Join(ds, ","))
	}
	return strings.Join(parts, ";")
}

// Parse builds a Plan from a spec string:
//
//	spec       = point-rule *( ";" point-rule )
//	point-rule = point ":" directive *( "," directive )
//	point      = "core.load" | "snark.popright" | ... | "core.*" | "*"
//	directive  = "p=" FLOAT          probabilistic firing
//	           | "every=" N          fire every Nth attempt
//	           | "nth=" N *( "+" N ) fire on exactly these attempts (1-based)
//	           | "limit=" N          at most N firings
//	           | "delay=" DURATION   stall the firing thread (Go duration)
//	           | "gosched"           yield instead of sleeping
//	           | "stall"             delay-only: do not force a failure
//
// A point ending in "*" is a prefix glob ("core.*" covers every core point,
// "*" covers everything). A rule with only action directives (delay, gosched,
// stall, limit) defaults to every=1. Example:
//
//	core.load:p=0.01;snark.popright:nth=3+7,stall,delay=100us;mem.alloc:every=1000
func Parse(spec string) (*Plan, error) {
	pl := &Plan{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return pl, nil
	}
	for _, pr := range strings.Split(spec, ";") {
		pr = strings.TrimSpace(pr)
		if pr == "" {
			continue
		}
		name, directives, ok := strings.Cut(pr, ":")
		if !ok {
			return nil, fmt.Errorf("fault: rule %q: want point:directive[,directive...]", pr)
		}
		name = strings.ToLower(strings.TrimSpace(name))
		var points []Point
		if strings.HasSuffix(name, "*") {
			prefix := strings.TrimSuffix(name, "*")
			for p := Point(0); p < NumPoints; p++ {
				if strings.HasPrefix(p.String(), prefix) {
					points = append(points, p)
				}
			}
			if len(points) == 0 {
				return nil, fmt.Errorf("fault: glob %q matches no injection point", name)
			}
		} else {
			p, err := ParsePoint(name)
			if err != nil {
				return nil, err
			}
			points = []Point{p}
		}

		var r Rule
		for _, d := range strings.Split(directives, ",") {
			d = strings.TrimSpace(d)
			if d == "" {
				continue
			}
			key, val, _ := strings.Cut(d, "=")
			var err error
			switch strings.ToLower(key) {
			case "p":
				r.Prob, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.Prob < 0 || r.Prob > 1) {
					err = fmt.Errorf("probability %v outside [0,1]", r.Prob)
				}
			case "every":
				r.EveryN, err = strconv.ParseUint(val, 10, 64)
				if err == nil && r.EveryN == 0 {
					err = fmt.Errorf("every=0")
				}
			case "nth":
				for _, ns := range strings.Split(val, "+") {
					var n uint64
					n, err = strconv.ParseUint(strings.TrimSpace(ns), 10, 56)
					if err != nil || n == 0 {
						err = fmt.Errorf("bad attempt ordinal %q", ns)
						break
					}
					r.Nth = append(r.Nth, n)
				}
			case "limit":
				r.Limit, err = strconv.ParseUint(val, 10, 64)
			case "delay":
				var dur time.Duration
				dur, err = time.ParseDuration(val)
				if err == nil && dur < 0 {
					err = fmt.Errorf("negative delay")
				}
				r.DelayNS = int64(dur)
			case "gosched":
				r.Gosched = true
			case "stall":
				r.Stall = true
			default:
				err = fmt.Errorf("unknown directive")
			}
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q directive %q: %v", pr, d, err)
			}
		}
		if !r.enabled() {
			r.EveryN = 1 // action-only rules fire on every attempt
		}
		for _, p := range points {
			pl.Set(p, r)
		}
	}
	return pl, nil
}

// scheduleLen is the firing-log retention: enough to replay the tail of a
// chaos run without unbounded memory.
const scheduleLen = 4096

// Injector evaluates a Plan under a seed. A nil *Injector is valid and fully
// disabled. All methods are safe for concurrent use.
type Injector struct {
	seed  uint64
	rules [NumPoints]Rule

	// on is the per-point hot-path gate, kept separate from rules so the
	// inlined Inject wrapper reads one byte.
	on [NumPoints]bool

	pts [NumPoints]pointState

	// ring is the firing log: packed (point << 56 | attempt ordinal)
	// words claimed with one atomic increment. Slots are read racily by
	// Schedule — diagnostics, not a synchronization channel.
	ringPos atomic.Uint64
	ring    [scheduleLen]atomic.Uint64
}

// pointState is one point's counters, padded so neighbouring points on hot
// loops don't false-share.
type pointState struct {
	attempts atomic.Uint64
	fires    atomic.Uint64
	_        [48]byte
}

// NewInjector builds an injector for plan under seed. A nil or empty plan
// returns nil — the disabled injector.
func NewInjector(pl *Plan, seed uint64) *Injector {
	if pl.Empty() {
		return nil
	}
	in := &Injector{seed: seed, rules: pl.rules}
	for i := range in.rules {
		in.on[i] = in.rules[i].enabled()
	}
	return in
}

// Inject is the hot-path call at every declared site: it reports whether the
// caller must treat this attempt as failed. It may stall the calling thread
// first (delay rules). Disabled (nil injector or unruled point) it is one
// nil check and one bool load.
func (in *Injector) Inject(p Point) bool {
	if in == nil || !in.on[p] {
		return false
	}
	return in.inject(p)
}

// inject is the outlined firing path.
func (in *Injector) inject(p Point) bool {
	r := &in.rules[p]
	st := &in.pts[p]
	n := st.attempts.Add(1)
	if !r.fires(in.seed, p, n) {
		return false
	}
	if r.Limit > 0 && st.fires.Load() >= r.Limit {
		return false
	}
	st.fires.Add(1)
	in.ring[(in.ringPos.Add(1)-1)%scheduleLen].Store(uint64(p)<<56 | n&(1<<56-1))
	if r.DelayNS > 0 {
		time.Sleep(time.Duration(r.DelayNS))
	} else if r.Gosched {
		runtime.Gosched()
	}
	return !r.Stall
}

// Would is the pure replay predicate: whether attempt n at point p fires
// under this injector's seed and plan. It consults no mutable state, so a
// recorded schedule can be re-derived or verified offline.
func (in *Injector) Would(p Point, n uint64) bool {
	if in == nil || !in.on[p] {
		return false
	}
	return in.rules[p].fires(in.seed, p, n)
}

// Seed returns the injector's seed (0 for a nil injector).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Enabled reports whether any point is armed.
func (in *Injector) Enabled() bool { return in != nil }

// PointStat is one point's injection accounting.
type PointStat struct {
	Point    Point  `json:"-"`
	Name     string `json:"point"`
	Attempts uint64 `json:"attempts"`
	Fires    uint64 `json:"fires"`
}

// Stats returns accounting for every armed point, in point order.
func (in *Injector) Stats() []PointStat {
	if in == nil {
		return nil
	}
	var out []PointStat
	for p := Point(0); p < NumPoints; p++ {
		if !in.on[p] {
			continue
		}
		out = append(out, PointStat{
			Point:    p,
			Name:     p.String(),
			Attempts: in.pts[p].attempts.Load(),
			Fires:    in.pts[p].fires.Load(),
		})
	}
	return out
}

// Fires returns the total number of firings across all points.
func (in *Injector) Fires() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for p := range in.pts {
		t += in.pts[p].fires.Load()
	}
	return t
}

// Firing is one entry of the injected schedule: attempt ordinal n at point p
// fired.
type Firing struct {
	Point   Point  `json:"-"`
	Name    string `json:"point"`
	Attempt uint64 `json:"attempt"`
}

// Schedule returns the retained firing log, oldest first (bounded retention:
// the most recent firings survive). Together with the seed and plan it makes
// a failure replayable: the same seed re-fires the same ordinals.
func (in *Injector) Schedule() []Firing {
	if in == nil {
		return nil
	}
	pos := in.ringPos.Load()
	start := uint64(0)
	if pos > scheduleLen {
		start = pos - scheduleLen
	}
	out := make([]Firing, 0, pos-start)
	for i := start; i < pos; i++ {
		w := in.ring[i%scheduleLen].Load()
		if w == 0 {
			continue
		}
		out = append(out, Firing{
			Point:   Point(w >> 56),
			Name:    Point(w >> 56).String(),
			Attempt: w & (1<<56 - 1),
		})
	}
	return out
}

// ScheduleString renders the tail of the firing log compactly
// ("core.load@17 snark.popright@3 ..."), capped at max entries (0 = all
// retained). Postmortems embed it so a capture carries its injected schedule.
func (in *Injector) ScheduleString(max int) string {
	fs := in.Schedule()
	if max > 0 && len(fs) > max {
		fs = fs[len(fs)-max:]
	}
	if len(fs) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, f := range fs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s@%d", f.Name, f.Attempt)
	}
	return sb.String()
}
