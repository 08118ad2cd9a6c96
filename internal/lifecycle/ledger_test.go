package lifecycle

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lfrc/internal/obs"
)

// ev builds a synthetic flight event for ledger tests.
func ev(kind obs.Kind, ref uint32, ts int64, ok bool) obs.Event {
	return obs.Event{TS: ts, Kind: kind, Ref: ref, OK: ok}
}

func TestLedgerTracksSampledObject(t *testing.T) {
	l := New(WithSampleEvery(1))
	base := time.Now().UnixNano()

	alloc := ev(obs.KindAlloc, 0x100, base, false)
	alloc.Old, alloc.New = 1, 0 // gen 1, epoch 0
	l.OnEvent(alloc)
	if !l.Wants(0x100) {
		t.Fatalf("Wants(0x100) = false after sampled alloc")
	}
	if l.Wants(0x200) {
		t.Fatalf("Wants(0x200) = true for untracked ref")
	}
	l.OnEvent(ev(obs.KindLoad, 0x100, base+10, true))
	l.OnEvent(ev(obs.KindDestroy, 0x100, base+20, true))
	l.OnEvent(ev(obs.KindFree, 0x100, base+30, true))

	tl, ok := l.Timeline(0x100)
	if !ok {
		t.Fatalf("Timeline(0x100) not found")
	}
	if len(tl.Entries) != 4 {
		t.Fatalf("got %d entries, want 4: %s", len(tl.Entries), tl)
	}
	if !tl.Freed || tl.End != base+30 {
		t.Fatalf("freed=%t end=%d, want freed at %d", tl.Freed, tl.End, base+30)
	}
	if tl.Gen != 1 {
		t.Fatalf("gen = %d, want 1", tl.Gen)
	}
	// Count-moving and allocator events are goroutine-attributed; the plain
	// successful read deliberately is not (attribution costs a runtime.Stack
	// walk and reads never move the count).
	for i, e := range tl.Entries {
		switch e.Kind {
		case obs.KindLoad, obs.KindNaiveLoad:
			if e.GID != 0 {
				t.Fatalf("entry %d: plain read paid for attribution: %s", i, e)
			}
		default:
			if e.GID == 0 {
				t.Fatalf("entry %d has no goroutine attribution: %s", i, e)
			}
		}
	}
	if got := l.SampledObjects(); got != 1 {
		t.Fatalf("SampledObjects = %d, want 1", got)
	}
}

func TestLedgerSamplingDisabled(t *testing.T) {
	l := New(WithSampleEvery(0))
	l.OnEvent(ev(obs.KindAlloc, 0x100, 1, false))
	if l.Wants(0x100) || l.TrackedCount() != 0 {
		t.Fatalf("disabled ledger tracked an object")
	}
	if l.SampleEvery() != 0 {
		t.Fatalf("SampleEvery = %d, want 0", l.SampleEvery())
	}
}

func TestLedgerSamplesOneInN(t *testing.T) {
	l := New(WithSampleEvery(4))
	for i := uint32(1); i <= 16; i++ {
		l.OnEvent(ev(obs.KindAlloc, i*8, int64(i), false))
	}
	if got := l.TrackedCount(); got != 4 {
		t.Fatalf("tracked %d of 16 allocs at 1-in-4, want 4", got)
	}
}

func TestLedgerCompactionKeepsBirthAndTail(t *testing.T) {
	l := New(WithSampleEvery(1), WithMaxEvents(16))
	base := int64(1000)
	l.OnEvent(ev(obs.KindAlloc, 0x100, base, false))
	for i := 1; i <= 100; i++ {
		l.OnEvent(ev(obs.KindLoad, 0x100, base+int64(i), true))
	}
	tl, _ := l.Timeline(0x100)
	if len(tl.Entries) > 16 {
		t.Fatalf("entries grew past the bound: %d", len(tl.Entries))
	}
	if tl.Dropped == 0 {
		t.Fatalf("no entries counted as dropped after 101 appends with bound 16")
	}
	if tl.Entries[0].Kind != obs.KindAlloc {
		t.Fatalf("compaction lost the birth entry: first is %s", tl.Entries[0].Kind)
	}
	if last := tl.Entries[len(tl.Entries)-1]; last.TS != base+100 {
		t.Fatalf("compaction lost the tail: last ts %d, want %d", last.TS, base+100)
	}
}

func TestLedgerRecycleRotatesIncarnation(t *testing.T) {
	l := New(WithSampleEvery(1))
	l.OnEvent(ev(obs.KindAlloc, 0x100, 10, false))
	l.OnEvent(ev(obs.KindFree, 0x100, 20, true))
	// Slot reuse: a second alloc on the same ref starts a new incarnation.
	realloc := ev(obs.KindAlloc, 0x100, 30, true)
	realloc.Old = 2
	l.OnEvent(realloc)

	done := l.Completed()
	if len(done) != 1 || !done[0].Freed || len(done[0].Entries) != 2 {
		t.Fatalf("expected 1 completed freed timeline with 2 entries, got %+v", done)
	}
	tl, ok := l.Timeline(0x100)
	if !ok || tl.Freed || tl.Gen != 2 {
		t.Fatalf("live incarnation wrong: ok=%t freed=%t gen=%d", ok, tl.Freed, tl.Gen)
	}
}

func TestLedgerMaxTracked(t *testing.T) {
	l := New(WithSampleEvery(1), WithMaxTracked(2))
	for i := uint32(1); i <= 5; i++ {
		l.OnEvent(ev(obs.KindAlloc, i*8, int64(i), false))
	}
	if got := l.TrackedCount(); got != 2 {
		t.Fatalf("TrackedCount = %d, want 2", got)
	}
	if got := l.SkippedFull(); got != 3 {
		t.Fatalf("SkippedFull = %d, want 3", got)
	}
}

func TestCurrentGIDDistinctAcrossGoroutines(t *testing.T) {
	g0 := CurrentGID()
	if g0 == 0 {
		t.Fatalf("CurrentGID returned 0")
	}
	var g1 uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g1 = CurrentGID()
	}()
	wg.Wait()
	if g1 == 0 || g1 == g0 {
		t.Fatalf("goroutine ids not distinct: %d vs %d", g0, g1)
	}
}

func TestDoRegistersGoroutineName(t *testing.T) {
	var during string
	var gid uint64
	Do("worker-7", func() {
		gid = CurrentGID()
		during, _ = GoroutineName(gid)
	}, "lfrc_shard", "3")
	if during != "worker-7" {
		t.Fatalf("GoroutineName during Do = %q, want worker-7", during)
	}
	if _, ok := GoroutineName(gid); ok {
		t.Fatalf("registration leaked after Do returned")
	}
}

// fakeProbe is a canned Probe for auditor tests.
type fakeProbe struct {
	mu    sync.Mutex
	rc    map[uint32]uint64
	freed map[uint32]bool
	epoch uint64
}

func (p *fakeProbe) RCOf(ref uint32) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rc[ref]
}

func (p *fakeProbe) Freed(ref uint32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.freed[ref]
}

func (p *fakeProbe) AdvanceEpoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch++
	return p.epoch
}

func findViolation(vs []Violation, kind string) (Violation, bool) {
	for _, v := range vs {
		if v.Kind == kind {
			return v, true
		}
	}
	return Violation{}, false
}

func TestAuditorFlagsLeakCandidate(t *testing.T) {
	l := New(WithSampleEvery(1))
	rec := obs.New(obs.WithSampleEvery(1))
	probe := &fakeProbe{rc: map[uint32]uint64{0x100: 2}, freed: map[uint32]bool{}}
	a := NewAuditor(l, probe, rec, WithLeakEpochs(2))

	l.OnEvent(ev(obs.KindAlloc, 0x100, time.Now().UnixNano(), false))
	l.OnEvent(ev(obs.KindLoad, 0x100, time.Now().UnixNano(), true))

	var leak Violation
	for i := 0; i < 4; i++ {
		if v, ok := findViolation(a.RunPass(), KindLeakCandidate); ok {
			leak = v
			break
		}
	}
	if leak.Kind == "" {
		t.Fatalf("no leak candidate after 4 idle passes; violations: %v", a.Violations())
	}
	if leak.Ref != 0x100 {
		t.Fatalf("leak names ref %#x, want 0x100", leak.Ref)
	}
	if !strings.Contains(leak.Detail, "rc stuck at 2") {
		t.Fatalf("detail does not name the stuck rc: %q", leak.Detail)
	}
	if len(leak.Timeline.Entries) != 2 {
		t.Fatalf("violation carries %d timeline entries, want 2", len(leak.Timeline.Entries))
	}

	// Dedupe: further passes must not re-flag the same incarnation.
	for i := 0; i < 3; i++ {
		if _, ok := findViolation(a.RunPass(), KindLeakCandidate); ok {
			t.Fatalf("leak candidate re-flagged on a later pass")
		}
	}

	// The finding surfaced through the recorder's postmortem pipeline.
	found := false
	for _, pm := range rec.Postmortems() {
		if strings.Contains(pm.Reason, KindLeakCandidate) && pm.Ref == 0x100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no postmortem captured for the leak candidate")
	}
}

func TestAuditorIgnoresActiveObjects(t *testing.T) {
	l := New(WithSampleEvery(1))
	probe := &fakeProbe{rc: map[uint32]uint64{0x100: 5}, freed: map[uint32]bool{}}
	a := NewAuditor(l, probe, nil, WithLeakEpochs(2))

	l.OnEvent(ev(obs.KindAlloc, 0x100, 1, false))
	for i := 0; i < 6; i++ {
		// A touch between every pass keeps the track non-stale.
		l.OnEvent(ev(obs.KindCopy, 0x100, int64(10+i), true))
		if vs := a.RunPass(); len(vs) != 0 {
			t.Fatalf("active object flagged: %v", vs)
		}
	}
}

func TestAuditorFlagsDoubleFree(t *testing.T) {
	l := New(WithSampleEvery(1))
	probe := &fakeProbe{rc: map[uint32]uint64{}, freed: map[uint32]bool{0x100: true}}
	a := NewAuditor(l, probe, nil)

	l.OnEvent(ev(obs.KindAlloc, 0x100, 10, false))
	l.OnEvent(ev(obs.KindFree, 0x100, 20, true))
	l.OnEvent(ev(obs.KindFree, 0x100, 30, false)) // rejected second free

	v, ok := findViolation(a.RunPass(), KindDoubleFree)
	if !ok {
		t.Fatalf("double free not flagged; violations: %v", a.Violations())
	}
	if v.Ref != 0x100 || !strings.Contains(v.Detail, "already freed") {
		t.Fatalf("unexpected double-free violation: %+v", v)
	}
}

func TestAuditorFlagsUseAfterFree(t *testing.T) {
	l := New(WithSampleEvery(1))
	probe := &fakeProbe{rc: map[uint32]uint64{}, freed: map[uint32]bool{0x100: true}}
	a := NewAuditor(l, probe, nil)

	l.OnEvent(ev(obs.KindAlloc, 0x100, 10, false))
	l.OnEvent(ev(obs.KindFree, 0x100, 20, true))
	l.OnEvent(ev(obs.KindDestroy, 0x100, 40, false)) // touch after death

	v, ok := findViolation(a.RunPass(), KindUseAfterFree)
	if !ok {
		t.Fatalf("use after free not flagged; violations: %v", a.Violations())
	}
	if v.Ref != 0x100 || !strings.Contains(v.Detail, "after its free") {
		t.Fatalf("unexpected use-after-free violation: %+v", v)
	}
}

func TestAuditorFlagsStuckZombie(t *testing.T) {
	l := New(WithSampleEvery(1))
	probe := &fakeProbe{rc: map[uint32]uint64{}, freed: map[uint32]bool{}}
	a := NewAuditor(l, probe, nil, WithLeakEpochs(2))

	l.OnEvent(ev(obs.KindAlloc, 0x100, 10, false))
	l.OnEvent(ev(obs.KindZombiePush, 0x100, 20, true))

	var got Violation
	for i := 0; i < 4; i++ {
		if v, ok := findViolation(a.RunPass(), KindStuckZombie); ok {
			got = v
			break
		}
	}
	if got.Kind == "" {
		t.Fatalf("stuck zombie not flagged; violations: %v", a.Violations())
	}
	if got.Ref != 0x100 {
		t.Fatalf("stuck zombie names ref %#x, want 0x100", got.Ref)
	}
}

func TestAuditorRetiresQuietFreedTracks(t *testing.T) {
	l := New(WithSampleEvery(1))
	probe := &fakeProbe{rc: map[uint32]uint64{}, freed: map[uint32]bool{0x100: true}}
	a := NewAuditor(l, probe, nil, WithLeakEpochs(2))

	l.OnEvent(ev(obs.KindAlloc, 0x100, 10, false))
	l.OnEvent(ev(obs.KindFree, 0x100, 20, true))
	for i := 0; i < 4; i++ {
		a.RunPass()
	}
	if l.TrackedCount() != 0 {
		t.Fatalf("quiet freed track not retired: %d still tracked", l.TrackedCount())
	}
	if len(l.Completed()) != 1 {
		t.Fatalf("retired track missing from completed ring")
	}
}

func TestAuditorStartStop(t *testing.T) {
	l := New(WithSampleEvery(1))
	probe := &fakeProbe{rc: map[uint32]uint64{}, freed: map[uint32]bool{}}
	a := NewAuditor(l, probe, nil, WithInterval(time.Millisecond))
	a.Start()
	a.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for a.Passes() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.Stop()
	a.Stop() // idempotent
	if a.Passes() == 0 {
		t.Fatalf("background auditor never ran a pass")
	}

	// Stop without Start must not hang.
	b := NewAuditor(l, probe, nil)
	b.Stop()
}

// BenchmarkCurrentGID prices goroutine attribution — the dominant per-event
// cost for tracked objects (it walks the runtime.Stack header).
func BenchmarkCurrentGID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkGID = CurrentGID()
	}
}

var sinkGID uint64

// BenchmarkLedgerOnEventTracked prices one delivered event for a tracked
// object end to end (gid parse + per-track mutex + append).
func BenchmarkLedgerOnEventTracked(b *testing.B) {
	l := New(WithSampleEvery(1))
	l.OnEvent(obs.Event{TS: 1, Kind: obs.KindAlloc, Ref: 0x40, Old: 1})
	e := obs.Event{TS: 2, Kind: obs.KindLoad, Ref: 0x40, OK: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.OnEvent(e)
	}
}
