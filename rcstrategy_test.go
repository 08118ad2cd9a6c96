package lfrc_test

import (
	"math/rand"
	"sync"
	"testing"

	"lfrc"
)

// TestRCStrategyDefault pins the facade's default: a System built with no
// options runs split, and the paper's protocol stays one option away.
func TestRCStrategyDefault(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []lfrc.Option
		want string
	}{
		{"default", nil, "split"},
		{"figure2", []lfrc.Option{lfrc.WithRCStrategy(lfrc.RCFigure2)}, "figure2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := lfrc.New(tc.opts...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer sys.Close()
			if got := sys.RCStrategyName(); got != tc.want {
				t.Errorf("RCStrategyName = %q, want %q", got, tc.want)
			}
			if got := sys.Stats().RCStrategy; got != tc.want {
				t.Errorf("Stats().RCStrategy = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestSplitStrategySystem runs the full public surface under the split RC
// strategy on both engines: structure round trips, a quiescent Audit (which
// must understand weighted links), a Census (zero mismatches, no false
// cycles), the backup collector, and clean teardown.
func TestSplitStrategySystem(t *testing.T) {
	for name, sys := range systems(t, lfrc.WithRCStrategy(lfrc.RCSplit)) {
		t.Run(name, func(t *testing.T) {
			if got := sys.RCStrategyName(); got != "split" {
				t.Fatalf("RCStrategyName = %q, want split", got)
			}
			if got := sys.Stats().RCStrategy; got != "split" {
				t.Fatalf("Stats().RCStrategy = %q, want split", got)
			}

			d, err := sys.NewDeque()
			if err != nil {
				t.Fatalf("NewDeque: %v", err)
			}
			q, err := sys.NewQueue()
			if err != nil {
				t.Fatalf("NewQueue: %v", err)
			}
			for v := lfrc.Value(1); v <= 64; v++ {
				if err := d.PushRight(v); err != nil {
					t.Fatal(err)
				}
				if err := q.Enqueue(v); err != nil {
					t.Fatal(err)
				}
			}
			for v := lfrc.Value(1); v <= 32; v++ {
				if got, ok := d.PopLeft(); !ok || got != v {
					t.Fatalf("PopLeft = (%d,%v), want (%d,true)", got, ok, v)
				}
				if got, ok := q.Dequeue(); !ok || got != v {
					t.Fatalf("Dequeue = (%d,%v), want (%d,true)", got, ok, v)
				}
			}

			// Quiescent audit must re-derive counts through the link codec.
			if vs := sys.Audit(); len(vs) != 0 {
				t.Fatalf("Audit under split: %d violations, first %s", len(vs), vs[0])
			}
			snap := sys.Census()
			if snap.RCMismatchCount != 0 {
				t.Fatalf("census mismatches = %d (first %+v)", snap.RCMismatchCount, snap.RCMismatches)
			}
			if snap.CycleCount != 0 {
				t.Fatalf("census found %d false cycles", snap.CycleCount)
			}
			if snap.Unreachable.Objects != 0 {
				t.Fatalf("census found %d unreachable objects on a rooted heap", snap.Unreachable.Objects)
			}

			// The backup collector must trace through packed links: a live
			// structure survives a collection untouched.
			before := sys.Stats().Heap.LiveObjects
			res := sys.Collect()
			if res.Freed != 0 {
				t.Fatalf("Collect freed %d live objects", res.Freed)
			}
			if got := sys.Stats().Heap.LiveObjects; got != before {
				t.Fatalf("LiveObjects %d -> %d across a no-op Collect", before, got)
			}

			d.Close()
			q.Close()
			sys.DrainZombies(0)
			if got := sys.Stats().Heap.LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d after Close, want 0", got)
			}
		})
	}
}

// TestSplitStrategyConcurrentChurn hammers a split-strategy deque from many
// goroutines and then audits: the weighted-count invariant must hold at
// quiescence on both engines.
func TestSplitStrategyConcurrentChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test skipped in -short")
	}
	for name, sys := range systems(t, lfrc.WithRCStrategy(lfrc.RCSplit)) {
		t.Run(name, func(t *testing.T) {
			d, err := sys.NewDeque()
			if err != nil {
				t.Fatalf("NewDeque: %v", err)
			}
			const workers, opsEach = 8, 400
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for i := 0; i < opsEach; i++ {
						switch rng.Intn(4) {
						case 0:
							_ = d.PushLeft(lfrc.Value(w*opsEach + i + 1))
						case 1:
							_ = d.PushRight(lfrc.Value(w*opsEach + i + 1))
						case 2:
							d.PopLeft()
						default:
							d.PopRight()
						}
					}
				}(w)
			}
			wg.Wait()
			if vs := sys.Audit(); len(vs) != 0 {
				t.Fatalf("Audit after churn: %d violations, first %s", len(vs), vs[0])
			}
			st := sys.Stats()
			if st.Heap.Corruptions != 0 || st.Heap.DoubleFrees != 0 {
				t.Fatalf("heap damage: corruptions=%d doubleFrees=%d",
					st.Heap.Corruptions, st.Heap.DoubleFrees)
			}
			d.Close()
			sys.DrainZombies(0)
			if got := sys.Stats().Heap.LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d after Close, want 0", got)
			}
		})
	}
}
