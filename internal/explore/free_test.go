package explore

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"lfrc/internal/census"
	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

// loadVsFreeScenario runs the paper's §5 race at cell granularity, so the
// engine's own locks and installs interleave with the heap's plain stores: a
// figure2 Load of cell a races a thread that stores null into a, which frees
// the referent, and then allocates again, which recycles the referent's slot
// and checks its poison. With relink set, the recycled object is stored back
// into a, so the Load can meet the same address in a again.
//
// The referent sits below the cell's holder, so its count cell has the
// lower address and a DCAS takes it first. A Load that read a zero count
// from the dying referent would then hold the count cell while the heap
// poisons it.
//
// Runs are sequential, so they share one heap (building a heap costs more
// than a run); each run first releases what the last one left.
func loadVsFreeScenario(mk func(*mem.Heap, func(bool)) dcas.Engine, relink bool) CellScenario {
	h := mem.NewHeap(mem.WithAllocShards(1))
	// A pointer field gives the freer an engine step between the count
	// reaching zero and the slot being poisoned.
	node := h.MustRegisterType(mem.TypeDesc{Name: "node", NumFields: 1, PtrFields: []int{0}})
	low := h.MustAlloc(node)
	holder := h.MustAlloc(node)
	a := h.FieldAddr(holder, 0)
	if err := h.Free(low); err != nil {
		panic(err)
	}
	var dst mem.Ref
	return func(step func(bool)) ([]func(), func() error) {
		rc := core.New(h, mk(h, step))
		rc.Destroy(dst)
		dst = 0
		rc.Store(a, 0)
		// Take the slot below the holder for the referent. Slots the last
		// run carved above it go back on the free list first, so the freer
		// recycles the referent's slot, which is freed last.
		var above []mem.Ref
		v, _ := rc.NewObject(node)
		for ; v > holder; v, _ = rc.NewObject(node) {
			above = append(above, v)
		}
		rc.Destroy(above...)
		rc.StoreAlloc(a, v)
		corruptions := h.Stats().Corruptions

		loadedFreed := false
		loader := func() {
			rc.Load(a, &dst)
			loadedFreed = dst != 0 && h.IsFreed(dst)
		}
		freer := func() {
			rc.Store(a, 0)
			rc.WordLoad(a) // one more step between the free and the alloc
			n, err := rc.NewObject(node)
			if err != nil {
				panic(err)
			}
			if relink {
				rc.StoreAlloc(a, n)
			} else {
				rc.Destroy(n)
			}
		}
		check := func() error {
			if loadedFreed {
				return fmt.Errorf("Load returned a freed object")
			}
			if c := h.Stats().Corruptions - corruptions; c != 0 {
				return fmt.Errorf("%d heap corruptions", c)
			}
			if p := rc.Stats().PoisonedRCUpdates; p != 0 {
				return fmt.Errorf("%d poisoned rc updates", p)
			}
			roots := map[uint32]census.Root{uint32(holder): {Ref: uint32(holder), Count: 1}}
			if dst != 0 {
				roots[uint32(dst)] = census.Root{Ref: uint32(dst), Count: 1}
			}
			if ms := census.Audit(census.Config{Heap: h, Read: h.Load, Roots: roots}); len(ms) != 0 {
				return fmt.Errorf("audit: %+v", ms)
			}
			return nil
		}
		return []func(){loader, freer}, check
	}
}

// TestLoadRacesFreeAtCellGranularity explores the Load-versus-free race with
// every engine-internal cell operation a scheduling point. It covers the
// two ways a lock or descriptor left in a freed count cell goes wrong: an
// unlock that overwrites the heap's poison (caught as a corruption when the
// slot is recycled), and a DCAS that commits on a count cell the heap has
// since poisoned and reinitialised (caught by the audit).
func TestLoadRacesFreeAtCellGranularity(t *testing.T) {
	for _, engine := range slices.Sorted(maps.Keys(cellEngines)) {
		mk := cellEngines[engine]
		for _, relink := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/relink=%v", engine, relink), func(t *testing.T) {
				res := RunDFS(loadVsFreeScenario(mk, relink), 3, 20_000, 100_000)
				if res.Violations != 0 || res.Incomplete != 0 {
					t.Errorf("%d violations, %d incomplete in %d runs; first: %v (trace %v)",
						res.Violations, res.Incomplete, res.Runs, res.FirstError, res.FirstViolation)
				}
				t.Logf("%d schedules explored", res.Runs)
			})
		}
	}
}
