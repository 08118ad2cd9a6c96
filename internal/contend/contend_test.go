package contend

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lfrc/internal/obs"
)

// findCell fetches the merged (addr, op) row from a snapshot, if present.
func findCell(rep Report, addr uint32, op string) (CellStats, bool) {
	for _, c := range rep.Cells {
		if c.Addr == addr && c.Op == op {
			return c, true
		}
	}
	return CellStats{}, false
}

func TestNilTableIsDisabled(t *testing.T) {
	var tb *Table
	tb.Attempt(obs.KindLoad, 1, RolePointer, 2, RoleRC, true, false)
	tb.OpDone(obs.KindLoad, 1, RolePointer, 2, RoleRC, 3)
	tb.Aggregate(obs.Event{Kind: obs.KindLoad, Addr: 1, Retries: 2}, 100)
	tb.Declare(1, RoleLeftHat)
	tb.SetOpScale(8)
	if got := tb.OpScale(); got != 1 {
		t.Fatalf("nil OpScale = %d, want 1", got)
	}
	if got := tb.Dropped(); got != 0 {
		t.Fatalf("nil Dropped = %d, want 0", got)
	}
	rep := tb.Snapshot()
	if len(rep.Cells) != 0 || len(rep.Heatmap) != 0 {
		t.Fatalf("nil Snapshot not empty: %+v", rep)
	}
	var sb strings.Builder
	tb.WriteReport(&sb)
	if !strings.Contains(sb.String(), "no contention recorded") {
		t.Fatalf("nil WriteReport = %q", sb.String())
	}
}

func TestAttemptAttribution(t *testing.T) {
	tb := New(WithStripes(1))

	// Pointer cell moved, rc cell did not.
	tb.Attempt(obs.KindLoad, 0x10, RolePointer, 0x20, RoleRC, true, false)
	// RC cell moved, pointer did not.
	tb.Attempt(obs.KindLoad, 0x10, RolePointer, 0x20, RoleRC, false, true)
	// Transient (neither re-read mismatched): blamed on the primary cell.
	tb.Attempt(obs.KindLoad, 0x10, RolePointer, 0x20, RoleRC, false, false)

	rep := tb.Snapshot()
	p, ok := findCell(rep, 0x10, "load")
	if !ok {
		t.Fatal("pointer cell missing from snapshot")
	}
	if p.Attempts != 3 || p.Failures != 2 {
		t.Fatalf("pointer cell attempts/failures = %d/%d, want 3/2", p.Attempts, p.Failures)
	}
	if p.Role != "pointer" {
		t.Fatalf("pointer cell role = %q", p.Role)
	}
	r, ok := findCell(rep, 0x20, "load")
	if !ok {
		t.Fatal("rc cell missing from snapshot")
	}
	if r.Attempts != 3 || r.Failures != 1 {
		t.Fatalf("rc cell attempts/failures = %d/%d, want 3/1", r.Attempts, r.Failures)
	}
	if r.Role != "rc" {
		t.Fatalf("rc cell role = %q", r.Role)
	}
}

func TestOpDoneRetryAccounting(t *testing.T) {
	tb := New(WithStripes(1))
	tb.OpDone(obs.KindPushRight, 0x30, RoleRightHat, 0x40, RoleLeftHat, 2)
	tb.OpDone(obs.KindPushRight, 0x30, RoleRightHat, 0x40, RoleLeftHat, 5)

	rep := tb.Snapshot()
	c, ok := findCell(rep, 0x30, "push_right")
	if !ok {
		t.Fatal("hat cell missing")
	}
	if c.Ops != 2 || c.RetrySum != 7 || c.RetryMax != 5 {
		t.Fatalf("ops/retrySum/retryMax = %d/%d/%d, want 2/7/5", c.Ops, c.RetrySum, c.RetryMax)
	}
	if c.Role != "right_hat" {
		t.Fatalf("role = %q, want right_hat", c.Role)
	}
	// The secondary cell only counts the attempt.
	s, ok := findCell(rep, 0x40, "push_right")
	if !ok {
		t.Fatal("secondary cell missing")
	}
	if s.Attempts != 2 || s.Ops != 0 {
		t.Fatalf("secondary attempts/ops = %d/%d, want 2/0", s.Attempts, s.Ops)
	}
}

func TestAggregateWastedNS(t *testing.T) {
	tb := New(WithStripes(1))
	tb.SetOpScale(4)

	// 3 retries over 400ns: wasted = 400*3/4 = 300, scaled x4 = 1200.
	tb.Aggregate(obs.Event{Kind: obs.KindLoad, Addr: 0x50, Retries: 3}, 400)
	// No retries: no wasted work recorded.
	tb.Aggregate(obs.Event{Kind: obs.KindLoad, Addr: 0x50, Retries: 0}, 400)
	// No cell: dropped.
	tb.Aggregate(obs.Event{Kind: obs.KindLoad, Addr: 0, Retries: 3}, 400)

	rep := tb.Snapshot()
	c, ok := findCell(rep, 0x50, "load")
	if !ok {
		t.Fatal("cell missing")
	}
	if c.WastedNS != 1200 {
		t.Fatalf("wastedNS = %d, want 1200", c.WastedNS)
	}
}

// TestWastedNSFallbackEWMA is the regression test for all-zero wasted_ns
// columns under sparse op sampling: a cell whose failures are counted exactly (Attempt
// is unsampled) but whose retried operations the op sampler never timed used
// to report wasted_ns = 0 forever. The snapshot must fall back to the kind's
// EWMA of per-attempt latency instead of multiplying by zero.
func TestWastedNSFallbackEWMA(t *testing.T) {
	tb := New(WithStripes(1))
	tb.SetOpScale(64)

	// A contended run: five failures attributed to the hat cell...
	for i := 0; i < 5; i++ {
		tb.Attempt(obs.KindPushRight, 0x70, RoleRightHat, 0, RoleUnknown, true, false)
	}
	// ...while every latency sample the recorder kept for the kind was a
	// retry-free op (with 1-in-64 sampling on one CPU that is the common
	// case), so the direct wasted-ns path never fires.
	for i := 0; i < 10; i++ {
		tb.Aggregate(obs.Event{Kind: obs.KindPushRight, Addr: 0x70, Retries: 0}, 800)
	}

	rep := tb.Snapshot()
	c, ok := findCell(rep, 0x70, "push_right")
	if !ok {
		t.Fatal("cell missing")
	}
	if c.Failures != 5 {
		t.Fatalf("failures = %d, want 5", c.Failures)
	}
	// 5 failures charged at the 800ns per-attempt EWMA; the estimate is
	// built from exact failure counts, so OpScale must NOT inflate it.
	if c.WastedNS != 5*800 {
		t.Fatalf("fallback wastedNS = %d, want %d (5 failures x 800ns EWMA, unscaled)", c.WastedNS, 5*800)
	}
	if len(rep.Heatmap) == 0 || rep.Heatmap[0].WastedNS == 0 {
		t.Fatalf("heatmap did not inherit the fallback estimate: %+v", rep.Heatmap)
	}
}

// TestWastedNSFallbackCrossKind: when a kind has no latency samples at all,
// the fallback uses the cross-kind EWMA rather than reporting zero.
func TestWastedNSFallbackCrossKind(t *testing.T) {
	tb := New(WithStripes(1))
	tb.Attempt(obs.KindPushLeft, 0x80, RoleLeftHat, 0, RoleUnknown, true, false)
	// The only timed op is a load elsewhere: 1 retry over 200ns = 100ns
	// per attempt.
	tb.Aggregate(obs.Event{Kind: obs.KindLoad, Addr: 0, Retries: 1}, 200)

	rep := tb.Snapshot()
	c, ok := findCell(rep, 0x80, "push_left")
	if !ok {
		t.Fatal("cell missing")
	}
	if c.WastedNS != 100 {
		t.Fatalf("cross-kind fallback wastedNS = %d, want 100", c.WastedNS)
	}
}

// TestWastedNSFallbackNoSamples: with no latency information anywhere the
// estimate stays 0 — the fallback never invents latency out of thin air.
func TestWastedNSFallbackNoSamples(t *testing.T) {
	tb := New(WithStripes(1))
	tb.Attempt(obs.KindPushLeft, 0x90, RoleLeftHat, 0, RoleUnknown, true, false)
	rep := tb.Snapshot()
	c, ok := findCell(rep, 0x90, "push_left")
	if !ok {
		t.Fatal("cell missing")
	}
	if c.WastedNS != 0 {
		t.Fatalf("wastedNS = %d with no latency samples, want 0", c.WastedNS)
	}
}

// TestTopInto checks the timeline's zero-alloc heatmap tap: hottest first,
// per-address merge, zero-filled tail, nil safety.
func TestTopInto(t *testing.T) {
	tb := New(WithStripes(1))
	for i := 0; i < 8; i++ {
		tb.Attempt(obs.KindPushRight, 0xA0, RoleRightHat, 0, RoleUnknown, true, false)
	}
	tb.Attempt(obs.KindPopLeft, 0xA0, RoleRightHat, 0, RoleUnknown, true, false) // same addr, other kind
	tb.Attempt(obs.KindLoad, 0xB0, RolePointer, 0, RoleUnknown, true, false)

	var top [4]HotSample
	n := tb.TopInto(top[:])
	if n != 2 {
		t.Fatalf("TopInto wrote %d entries, want 2", n)
	}
	if top[0].Addr != 0xA0 || top[0].Failures != 9 {
		t.Fatalf("hottest = %+v, want addr 0xA0 with 9 merged failures", top[0])
	}
	if Role(top[0].Role) != RoleRightHat {
		t.Fatalf("hottest role = %v, want right_hat", Role(top[0].Role))
	}
	if top[1].Addr != 0xB0 || top[2] != (HotSample{}) {
		t.Fatalf("rest = %+v", top[1:])
	}

	allocs := testing.AllocsPerRun(100, func() { tb.TopInto(top[:]) })
	if allocs != 0 {
		t.Fatalf("TopInto allocates %.0f/op, want 0", allocs)
	}

	var nilTb *Table
	if got := nilTb.TopInto(top[:]); got != 0 {
		t.Fatalf("nil TopInto = %d, want 0", got)
	}
}

func TestDeclareUpgradesRole(t *testing.T) {
	tb := New(WithStripes(1))
	tb.Declare(0x60, RoleRightHat)

	// A generic site records the declared cell as a mere pointer…
	tb.Attempt(obs.KindLoad, 0x60, RolePointer, 0, RoleUnknown, true, false)

	rep := tb.Snapshot()
	c, ok := findCell(rep, 0x60, "load")
	if !ok {
		t.Fatal("cell missing")
	}
	// …but the profile shows its structural identity.
	if c.Role != "right_hat" {
		t.Fatalf("role = %q, want right_hat", c.Role)
	}

	// Re-declaring an address updates in place without growing the registry.
	tb.Declare(0x60, RoleLeftHat)
	if n := tb.declaredN.Load(); n != 1 {
		t.Fatalf("declaredN = %d, want 1", n)
	}
}

func TestHeatmapMergesOpsPerCell(t *testing.T) {
	tb := New(WithStripes(1))
	tb.Attempt(obs.KindPushRight, 0x70, RoleRightHat, 0, RoleUnknown, true, false)
	tb.Attempt(obs.KindPopRight, 0x70, RoleRightHat, 0, RoleUnknown, true, false)
	tb.Attempt(obs.KindPopRight, 0x70, RoleRightHat, 0, RoleUnknown, true, false)

	rep := tb.Snapshot()
	if len(rep.Heatmap) != 1 {
		t.Fatalf("heatmap rows = %d, want 1", len(rep.Heatmap))
	}
	h := rep.Heatmap[0]
	if h.Addr != 0x70 || h.Failures != 3 {
		t.Fatalf("heatmap row = %+v", h)
	}
	// pop_right is hotter (2 failures) so it leads the op list.
	if len(h.Ops) != 2 || h.Ops[0] != "pop_right" || h.Ops[1] != "push_right" {
		t.Fatalf("heatmap ops = %v", h.Ops)
	}
}

func TestHeatmapTruncatesToK(t *testing.T) {
	tb := New(WithStripes(1))
	for i := 0; i < heatmapK+8; i++ {
		tb.Attempt(obs.KindStore, uint32(0x100+i), RolePointer, 0, RoleUnknown, true, false)
	}
	rep := tb.Snapshot()
	if len(rep.Heatmap) != heatmapK {
		t.Fatalf("heatmap rows = %d, want %d", len(rep.Heatmap), heatmapK)
	}
	if len(rep.Cells) != heatmapK+8 {
		t.Fatalf("cells = %d, want %d (full profile is not truncated)", len(rep.Cells), heatmapK+8)
	}
}

func TestDecayHalvesHotScore(t *testing.T) {
	tb := New(WithStripes(1), WithHalfLife(time.Second))
	clock := tb.now() // real start
	now := clock
	tb.now = func() int64 { return now }
	tb.lastDecay.Store(now)

	tb.Attempt(obs.KindLoad, 0x80, RolePointer, 0, RoleUnknown, true, false)
	tb.Aggregate(obs.Event{Kind: obs.KindLoad, Addr: 0x80, Retries: 1}, 2048)

	hot0 := tb.Snapshot().Heatmap[0].Hot
	if hot0 == 0 {
		t.Fatal("hot score not accumulated")
	}

	// Two half-lives later the score has quartered.
	now += 2 * int64(time.Second)
	hot1 := tb.Snapshot().Heatmap[0].Hot
	if want := hot0 >> 2; hot1 != want {
		t.Fatalf("hot after 2 half-lives = %d, want %d (from %d)", hot1, want, hot0)
	}

	// Monotonic counters are untouched by decay.
	c, _ := findCell(tb.Snapshot(), 0x80, "load")
	if c.Failures != 1 {
		t.Fatalf("failures decayed: %d", c.Failures)
	}
}

func TestFullStripeDrops(t *testing.T) {
	tb := New(WithStripes(1), WithCapacity(4))
	for i := 0; i < 16; i++ {
		tb.Attempt(obs.KindLoad, uint32(0x200+i), RolePointer, 0, RoleUnknown, true, false)
	}
	if tb.Dropped() == 0 {
		t.Fatal("expected drops when the stripe overflows")
	}
	if n := len(tb.Snapshot().Cells); n != 4 {
		t.Fatalf("cells = %d, want 4 (stripe capacity)", n)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tb := New()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				addr := uint32(0x300 + i%4)
				tb.Attempt(obs.KindDCAS, addr, RoleRightHat, addr+1, RoleNodeLink, true, false)
				tb.OpDone(obs.KindDCAS, addr, RoleRightHat, addr+1, RoleNodeLink, 1)
				tb.Aggregate(obs.Event{Kind: obs.KindDCAS, Addr: addr, Retries: 1}, 64)
			}
		}()
	}
	wg.Wait()

	rep := tb.Snapshot()
	var failures, ops int64
	for _, c := range rep.Cells {
		failures += c.Failures
		ops += c.Ops
	}
	if want := int64(workers * perWorker); failures != want || ops != want {
		t.Fatalf("failures/ops = %d/%d, want %d each (dropped=%d)",
			failures, ops, want, tb.Dropped())
	}
}

func TestWriteReportRendersTables(t *testing.T) {
	tb := New(WithStripes(1))
	tb.SetOpScale(64)
	tb.Declare(0x90, RoleLeftHat)
	tb.Attempt(obs.KindPopLeft, 0x90, RolePointer, 0, RoleUnknown, true, false)
	tb.Aggregate(obs.Event{Kind: obs.KindPopLeft, Addr: 0x90, Retries: 1}, 1000)

	var sb strings.Builder
	tb.WriteReport(&sb)
	out := sb.String()
	for _, want := range []string{"scaled x64", "hot cells", "0x90", "left_hat", "pop_left"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRoleStringAndSpecificity(t *testing.T) {
	if RoleRightHat.String() != "right_hat" || Role(250).String() != "unknown" {
		t.Fatal("Role.String broken")
	}
	if !(RoleUnknown.specificity() < RolePointer.specificity() &&
		RolePointer.specificity() < RoleRC.specificity()) {
		t.Fatal("specificity ordering broken")
	}
}
