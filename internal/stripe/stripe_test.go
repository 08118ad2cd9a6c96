package stripe

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClamp(t *testing.T) {
	tests := []struct {
		n, fallback, want int
	}{
		{n: 0, fallback: 4, want: 4},
		{n: -3, fallback: 8, want: 8},
		{n: 1, fallback: 4, want: 1},
		{n: 16, fallback: 4, want: 16},
		{n: MaxStripes + 1, fallback: 4, want: MaxStripes},
		{n: 0, fallback: 0, want: 1},
		{n: 0, fallback: MaxStripes * 2, want: MaxStripes},
	}
	for _, tt := range tests {
		if got := Clamp(tt.n, tt.fallback); got != tt.want {
			t.Errorf("Clamp(%d, %d) = %d, want %d", tt.n, tt.fallback, got, tt.want)
		}
	}
}

func TestHintInRange(t *testing.T) {
	// GOMAXPROCS grown past the stripe count: every P id, up to 7, must fold
	// into [0, n), to the same stripe as its id modulo n. The goroutines run
	// until one of them has run on a P whose id is at least 2.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var sawHigh, stop atomic.Bool
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, n := range []int{1, 2, 3, 7, 64} {
					if h := Hint(n); h < 0 || h >= n {
						t.Errorf("Hint(%d) = %d out of range", n, h)
						stop.Store(true)
						return
					}
					p := procPin()
					h := Hint(n)
					procUnpin()
					if h != p%n {
						t.Errorf("on P %d: Hint(%d) = %d, want %d", p, n, h, p%n)
						stop.Store(true)
						return
					}
					if p >= 2 {
						sawHigh.Store(true)
					}
				}
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sawHigh.Load() && !stop.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if !sawHigh.Load() {
		t.Error("no goroutine ran on a P with id >= 2 within 10s")
	}
}

func TestHintStableWithinCall(t *testing.T) {
	// While the goroutine cannot migrate, the hint is its P id and does not
	// flap between consecutive calls.
	p := procPin()
	got := p
	for i := 0; i < 1000 && got == p; i++ {
		got = Hint(MaxStripes)
	}
	procUnpin()
	if got != p {
		t.Fatalf("Hint flapped to %d on P %d", got, p)
	}
}

func TestHintSeparatesRunningGoroutines(t *testing.T) {
	// Two goroutines pinned at the same instant hold different Ps, so with
	// n >= GOMAXPROCS they must get different hints. Each publishes its hint
	// (plus one) only while pinned, and checks the other's on every round.
	const n = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	var cur [2]atomic.Int64
	var overlapped, stop atomic.Bool
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine, theirs := &cur[g], &cur[1-g]
			for !stop.Load() {
				procPin()
				h := int64(Hint(n)) + 1
				mine.Store(h)
				other := theirs.Load()
				mine.Store(0)
				procUnpin()
				if other == 0 {
					continue
				}
				if other == h {
					t.Errorf("two running goroutines share stripe %d", h-1)
					stop.Store(true)
				}
				overlapped.Store(true)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for !overlapped.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if !overlapped.Load() {
		t.Error("the two goroutines never ran at the same instant within 10s")
	}
}

// TestOfMatchesHint: routing one ID through Of lands on the stripe Hint
// picks, for every stripe count, so callers that read the P id once and
// reduce it into several arrays route exactly as separate Hint calls would.
func TestOfMatchesHint(t *testing.T) {
	for _, tc := range []struct{ p, n, want int }{
		{0, 1, 0}, {3, 1, 0}, {1, 4, 1}, {5, 4, 1}, {7, 7, 0}, {63, 64, 63},
	} {
		if got := Of(tc.p, tc.n); got != tc.want {
			t.Errorf("Of(%d, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
	p := procPin()
	id, h := ID(), Hint(3)
	procUnpin()
	if id != p || h != Of(p, 3) {
		t.Errorf("on P %d: ID() = %d, Hint(3) = %d, want %d and %d", p, id, h, p, Of(p, 3))
	}
}
