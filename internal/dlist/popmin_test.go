package dlist

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestPopMinEmptySet(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer l.Close()
			if _, ok := l.PopMin(); ok {
				t.Error("PopMin on empty set reported a value")
			}
		})
	}
}

func TestPopMinDrainsAscending(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer l.Close()

			keys := []Key{42, 7, 99, 1, 63, 12, 55}
			for _, k := range keys {
				mustInsert(t, l, k)
			}
			var got []Key
			for {
				k, ok := l.PopMin()
				if !ok {
					break
				}
				got = append(got, k)
			}
			if len(got) != len(keys) {
				t.Fatalf("drained %d keys, want %d", len(got), len(keys))
			}
			for i := 1; i < len(got); i++ {
				if got[i-1] >= got[i] {
					t.Fatalf("PopMin order not ascending: %v", got)
				}
			}
			if got[0] != 1 || got[len(got)-1] != 99 {
				t.Errorf("drain = %v", got)
			}
		})
	}
}

func TestPopMinInterleavedWithInserts(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer l.Close()

			mustInsert(t, l, 10)
			mustInsert(t, l, 20)
			if k, ok := l.PopMin(); !ok || k != 10 {
				t.Fatalf("PopMin = (%d,%v), want (10,true)", k, ok)
			}
			mustInsert(t, l, 5)
			if k, ok := l.PopMin(); !ok || k != 5 {
				t.Fatalf("PopMin = (%d,%v), want (5,true)", k, ok)
			}
			if k, ok := l.PopMin(); !ok || k != 20 {
				t.Fatalf("PopMin = (%d,%v), want (20,true)", k, ok)
			}
		})
	}
}

// TestPopMinConcurrentExactness: concurrent PopMin consumers must partition
// the key set — nothing lost, nothing delivered twice.
func TestPopMinConcurrentExactness(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)

			const n = 2000
			perm := rand.New(rand.NewSource(5)).Perm(n)
			for _, k := range perm {
				mustInsert(t, l, Key(k))
			}

			const consumers = 4
			var (
				mu  sync.Mutex
				got = map[Key]int{}
				wg  sync.WaitGroup
			)
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						k, ok := l.PopMin()
						if !ok {
							return
						}
						mu.Lock()
						got[k]++
						mu.Unlock()
					}
				}()
			}
			wg.Wait()

			if len(got) != n {
				t.Errorf("delivered %d distinct keys, want %d", len(got), n)
			}
			for k, c := range got {
				if c != 1 {
					t.Errorf("key %d delivered %d times", k, c)
				}
			}
			w.closeAndDrain(l)
			if live := w.h.Stats().LiveObjects; live != 0 {
				t.Errorf("LiveObjects = %d, want 0", live)
			}
		})
	}
}
