package msqueue

import (
	"runtime"
	"testing"

	"lfrc/internal/mem"
)

// TestStragglerPinsRetiredChain checks the queue's footprint bound under a
// straggler. Every retired dummy's next pointer references the node retired
// after it, so without the sentinel redirect in Dequeue a single straggler
// holding a counted reference to one old dummy transitively keeps every
// subsequently retired node live (every churned pair left one more object
// live). With it, the chain the straggler pins ends at a node redirected to
// the sentinel within severEvery retirements per P, the way the Snark
// deque's pops redirect to Dummy (TestSnarkPopsDoNotChainGarbage in package
// snark). Releasing the straggler's reference frees the chain.
func TestStragglerPinsRetiredChain(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			q := newQueue(t, w)

			// The straggler takes (and holds) a counted reference to
			// the current dummy node.
			var pin mem.Ref
			w.rc.Load(w.h.FieldAddr(q.Anchor(), aHead), &pin)
			if pin == 0 {
				t.Fatal("no dummy to pin")
			}

			// Churn: every enqueue+dequeue retires one node. The
			// chain bound is an eighth of the churn.
			bound := int64(3 + severEvery*runtime.GOMAXPROCS(0))
			churn := 8 * int(bound)
			for i := 0; i < churn; i++ {
				if err := q.Enqueue(uint64(i + 1)); err != nil {
					t.Fatal(err)
				}
				q.Dequeue()
			}

			// anchor + sentinel + current dummy + the pinned chain
			if got := w.h.Stats().LiveObjects; got > bound {
				t.Fatalf("straggler left %d live objects after %d churned pairs, want at most %d",
					got, churn, bound)
			}

			w.rc.Destroy(pin)
			if got := w.h.Stats().LiveObjects; got != 3 {
				t.Errorf("after releasing the straggler, %d objects remain live, want 3", got)
			}
			q.Close()
			if got := w.h.Stats().LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d after Close, want 0", got)
			}
		})
	}
}
