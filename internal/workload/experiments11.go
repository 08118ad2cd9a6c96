package workload

import (
	"fmt"

	"lfrc"
)

// o5Sizes are the heap populations experiment O5 sweeps, in live objects
// (before the Scale multiplier): the census claims linear cost, so the
// objs/ms column should hold roughly steady while live objects grow 16x.
var o5Sizes = []int{500, 2000, 8000}

// RunO5 measures the heap census's cost against heap size. Each round
// builds a queue of n nodes and a sorted set of n/4 keys, closes the set
// under an incremental-destroy budget of 1 without draining, and takes one
// quiescent census. The close frees one node and parks the next on the
// zombie stack with its fields intact, so it pins the rest of the chain; the
// census must classify all of it as limbo — already en route to the
// allocator — not as leaks, and must find no cycles in a
// healthy heap. Wall time is the pause a production operator pays per
// snapshot.
func RunO5(kind EngineKind, sc Scale) *Table {
	t := &Table{
		ID:     "O5",
		Title:  "heap census cost vs. heap size",
		Claim:  "census cost is linear in live objects, and budget-parked zombies are classified limbo, not leaked",
		Header: []string{"engine", "live", "census_us", "objs/ms", "limbo", "unreach", "cycles"},
	}
	for _, base := range o5Sizes {
		n := base * int(sc)
		opts := []lfrc.Option{lfrc.WithIncrementalDestroy(1)}
		switch kind {
		case EngineMCAS:
			opts = append(opts, lfrc.WithEngine(lfrc.EngineMCAS))
		default:
			opts = append(opts, lfrc.WithEngine(lfrc.EngineLocking))
		}
		sys, err := lfrc.New(opts...)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("n=%d FAILED: %v", n, err))
			continue
		}
		q, err := sys.NewQueue()
		if err != nil {
			sys.Close()
			t.Notes = append(t.Notes, fmt.Sprintf("n=%d FAILED: %v", n, err))
			continue
		}
		for i := 0; i < n; i++ {
			if err := q.Enqueue(lfrc.Value(i)); err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("n=%d enqueue: %v", n, err))
				break
			}
		}
		// Close a set of n/4 nodes without draining: the budget frees one
		// node and parks the next, which pins the rest of the chain; the
		// census must not call any of it a leak.
		if set, err := sys.NewSet(); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("n=%d FAILED: %v", n, err))
		} else {
			// Descending keys insert at the head of the sorted list.
			for k := n / 4; k > 0; k-- {
				if _, err := set.Insert(lfrc.Value(k)); err != nil {
					t.Notes = append(t.Notes, fmt.Sprintf("n=%d insert: %v", n, err))
					break
				}
			}
			set.Close()
		}

		snap := sys.Census()
		perMS := float64(0)
		if snap.WallNS > 0 {
			perMS = float64(snap.LiveObjects) / (float64(snap.WallNS) / 1e6)
		}
		t.AddRow(kind.String(), snap.LiveObjects,
			snap.WallNS/1000, perMS,
			snap.Limbo.Objects, snap.Unreachable.Objects, snap.CycleCount)

		q.Close()
		sys.DrainZombies(0)
		if base == o5Sizes[len(o5Sizes)-1] {
			// Publish the final system for -stats-json/-metrics.
			SetCurrentSystem(sys)
		} else {
			sys.Close()
		}
	}
	t.Notes = append(t.Notes,
		"each row: build a queue of n nodes (node + anchor objects) and a set of n/4 keys, close the set undrained under destroy budget 1, take one quiescent census",
		"census_us is Snapshot.WallNS for the walk+graph+SCC pass; objs/ms should hold roughly steady if cost is linear",
		"limbo counts the closed set's budget-parked zombies and the chain they still pin",
		"unreach/cycles are the leak verdicts — 0 on a healthy heap; see EXPERIMENTS.md O5",
	)
	return t
}
