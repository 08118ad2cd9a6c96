package linear

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
	"lfrc/internal/snark"
)

// TestPublishedSnarkHistories runs the *published* Snark algorithm (no
// value claiming) through the linearizability checker on pop-heavy,
// near-empty workloads -- the neighbourhood of the races Doherty et al.
// (SPAA 2004) later proved exist in the published algorithm. Some histories
// do fail here (6 of 300 on one run on a 2-CPU host): a pop reports a false
// empty, the race TestPublishedSnarkFalseEmpty replays deterministically.
// The count reproduces those post-publication races and is logged rather
// than asserted, because the published path is the reproduction and stays
// as printed.
func TestPublishedSnarkHistories(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	violations := 0
	rounds := 300
	for r := 0; r < rounds; r++ {
		h := mem.NewHeap()
		rc := core.New(h, dcas.NewLocking(h))
		d, err := snark.New(rc, snark.MustRegisterTypes(h)) // published, no claiming
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(3)
		var wg sync.WaitGroup
		var next struct {
			sync.Mutex
			v uint64
		}
		next.v = 1
		fresh := func() uint64 { next.Lock(); defer next.Unlock(); v := next.v; next.v++; return v }
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r*31 + w)))
				for i := 0; i < 120; i++ {
					rec.Record(func() Op {
						// pop-heavy: hover near empty where the races live
						switch rng.Intn(5) {
						case 0:
							v := fresh()
							return Op{Action: ActPushLeft, Input: v, OK: d.PushLeft(v) == nil}
						case 1:
							v := fresh()
							return Op{Action: ActPushRight, Input: v, OK: d.PushRight(v) == nil}
						case 2, 3:
							v, ok := d.PopLeft()
							return Op{Action: ActPopLeft, Output: v, OK: ok}
						default:
							v, ok := d.PopRight()
							return Op{Action: ActPopRight, Output: v, OK: ok}
						}
					})
				}
			}(w)
		}
		wg.Wait()
		if _, err := Check(DequeSpec{}, rec.History()); err != nil {
			violations++
		}
		d.Close()
	}
	t.Logf("published Snark: %d/%d histories non-linearizable", violations, rounds)
}

// TestPublishedSnarkFalseEmpty replays the false-empty race in the published
// pops deterministically. PopRight loads RightHat (node X), then LeftHat,
// then X.R. Between the LeftHat and X.R loads another thread pushes Y on the
// right and pops X on the left; that PopLeft's general-case DCAS sets X.R to
// null, its sentinel mark. The stalled PopRight then reads X.R == null, takes
// the hat to rest on a sentinel and reports empty, although the deque held
// [1], then [1 2], then [2] and was never empty. A later PopLeft still
// returns 2, so no value is lost: the history is not linearizable, but the
// heap is sound. The race is in the algorithm, so the published variant
// reproduces it here; the claiming variant guards delivery only and has the
// same window.
func TestPublishedSnarkFalseEmpty(t *testing.T) {
	h := mem.NewHeap()
	rc := core.New(h, dcas.NewLocking(h))
	d, err := snark.New(rc, snark.MustRegisterTypes(h))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.PushRight(1); err != nil {
		t.Fatal(err)
	}
	var loads int
	var popped snark.Value
	var poppedOK bool
	rc.LoadHook = func(mem.Ref) {
		// PopRight's loads: RightHat first, LeftHat second.
		if loads++; loads != 2 {
			return
		}
		rc.LoadHook = nil
		if err := d.PushRight(2); err != nil {
			t.Error(err)
		}
		popped, poppedOK = d.PopLeft()
	}
	if v, ok := d.PopRight(); ok {
		t.Fatalf("PopRight = (%d, true); the replayed schedule should report a false empty", v)
	}
	if popped != 1 || !poppedOK {
		t.Fatalf("interleaved PopLeft = (%d, %v), want (1, true)", popped, poppedOK)
	}
	if v, ok := d.PopLeft(); v != 2 || !ok {
		t.Fatalf("PopLeft after the false empty = (%d, %v), want (2, true)", v, ok)
	}
}
