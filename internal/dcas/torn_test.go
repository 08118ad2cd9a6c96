package dcas

import (
	"runtime"
	"sync/atomic"
	"testing"

	"lfrc/internal/mem"
)

// TestReadsNeverSeeHalfADCAS checks that Read is atomic with respect to
// DCAS, as it is for the hardware CAS2 the engines stand in for. A writer
// DCASes (a0, a1) from (k, k) to (k+1, k+1) while a reader reads a0 and then
// a1. Both cells only grow, so a read of a1 below the a0 read just before it
// means the reader saw the DCAS half done: a0 already new, a1 still old.
func TestReadsNeverSeeHalfADCAS(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	rounds := uint64(1 << 18)
	if testing.Short() {
		rounds = 1 << 15
	}
	for name, mk := range engineFactories() {
		t.Run(name, func(t *testing.T) {
			h := mem.NewHeap()
			e := mk(h)
			c := newCells(t, h, 2)
			a0, a1 := c[0], c[1]

			var done atomic.Bool
			var reads, torn uint64
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				for !done.Load() {
					v0 := e.Read(a0)
					v1 := e.Read(a1)
					reads++
					if v1 < v0 {
						torn++
					}
				}
			}()
			for k := uint64(0); k < rounds; k++ {
				if !e.DCAS(a0, a1, k, k, k+1, k+1) {
					done.Store(true)
					<-readerDone
					t.Fatalf("DCAS %d failed with no competing writer", k)
				}
			}
			done.Store(true)
			<-readerDone

			if torn != 0 {
				t.Errorf("%d of %d read pairs saw a DCAS half done", torn, reads)
			}
			if got0, got1 := e.Read(a0), e.Read(a1); got0 != rounds || got1 != rounds {
				t.Errorf("final cells (%d, %d), want (%d, %d)", got0, got1, rounds, rounds)
			}
		})
	}
}
