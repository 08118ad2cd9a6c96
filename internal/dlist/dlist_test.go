package dlist

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
)

type world struct {
	h  *mem.Heap
	rc *core.RC
	ts Types
}

// worldFactories covers every supported configuration: {locking, mcas}
// engines x {figure2, split} rc strategies x {eager, deferred} reclamation.
// The paper-faithful figure2/eager cell keeps the bare engine name; the
// others append their non-default dimensions, e.g. "mcas-split-epoch". The
// "-epoch" cells defer reclamation: an incremental-destroy budget of 1
// (§7) parks every dead node past the first on the zombie stack, so the
// list runs with a standing backlog of undestroyed corpses, as it once did
// under an epoch backend's grace period, whose cell name they keep.
func worldFactories() map[string]func(t *testing.T) *world {
	engines := map[string]func(h *mem.Heap) dcas.Engine{
		"locking": func(h *mem.Heap) dcas.Engine { return dcas.NewLocking(h) },
		"mcas":    func(h *mem.Heap) dcas.Engine { return dcas.NewMCAS(h) },
	}
	out := map[string]func(t *testing.T) *world{}
	for ename, engine := range engines {
		for _, strat := range []core.StrategyKind{core.StrategyFigure2, core.StrategySplit} {
			for _, deferred := range []bool{false, true} {
				name := ename
				if strat == core.StrategySplit {
					name += "-split"
				}
				opts := []core.Option{core.WithStrategyKind(strat)}
				if deferred {
					name += "-epoch"
					opts = append(opts, core.WithIncrementalDestroy(1))
				}
				out[name] = func(t *testing.T) *world {
					t.Helper()
					h := mem.NewHeap()
					rc := core.New(h, engine(h), opts...)
					return &world{h: h, rc: rc, ts: MustRegisterTypes(h)}
				}
			}
		}
	}
	return out
}

// closeAndDrain closes l and destroys the zombies a deferred cell parked, so
// the heap can be checked for leaks.
func (w *world) closeAndDrain(l *List) {
	l.Close()
	w.rc.DrainZombies(0)
}

func newList(t *testing.T, w *world) *List {
	t.Helper()
	l, err := New(w.rc, w.ts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

func mustInsert(t *testing.T, l *List, k Key) bool {
	t.Helper()
	ok, err := l.Insert(k)
	if err != nil {
		t.Fatalf("Insert(%d): %v", k, err)
	}
	return ok
}

func TestEmptyList(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer l.Close()
			if l.Contains(1) {
				t.Error("empty list contains 1")
			}
			if l.Delete(1) {
				t.Error("Delete on empty list succeeded")
			}
			if l.Len() != 0 {
				t.Errorf("Len = %d, want 0", l.Len())
			}
		})
	}
}

func TestInsertContainsDelete(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer l.Close()

			if !mustInsert(t, l, 5) {
				t.Fatal("first insert reported duplicate")
			}
			if mustInsert(t, l, 5) {
				t.Fatal("duplicate insert succeeded")
			}
			if !l.Contains(5) {
				t.Fatal("Contains(5) false after insert")
			}
			if !l.Delete(5) {
				t.Fatal("Delete(5) failed")
			}
			if l.Contains(5) {
				t.Fatal("Contains(5) true after delete")
			}
			if l.Delete(5) {
				t.Fatal("second Delete(5) succeeded")
			}
			// Reinsertion after deletion works.
			if !mustInsert(t, l, 5) {
				t.Fatal("reinsert after delete reported duplicate")
			}
		})
	}
}

func TestKeysSortedAscending(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer l.Close()

			input := []Key{42, 7, 99, 1, 63, 12, 55}
			for _, k := range input {
				mustInsert(t, l, k)
			}
			got := l.Keys()
			want := append([]Key(nil), input...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Keys = %v, want %v", got, want)
				}
			}
		})
	}
}

func TestInsertPositions(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer l.Close()
			// Middle, head, tail insertions.
			mustInsert(t, l, 10)
			mustInsert(t, l, 30)
			mustInsert(t, l, 20) // middle
			mustInsert(t, l, 5)  // new head
			mustInsert(t, l, 40) // new tail
			got := l.Keys()
			want := []Key{5, 10, 20, 30, 40}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Keys = %v, want %v", got, want)
				}
			}
		})
	}
}

func TestDeletePositions(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer l.Close()
			for _, k := range []Key{1, 2, 3, 4, 5} {
				mustInsert(t, l, k)
			}
			if !l.Delete(1) { // head
				t.Fatal("delete head failed")
			}
			if !l.Delete(3) { // middle
				t.Fatal("delete middle failed")
			}
			if !l.Delete(5) { // tail
				t.Fatal("delete tail failed")
			}
			got := l.Keys()
			want := []Key{2, 4}
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
		})
	}
}

func TestKeyOutOfRange(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer l.Close()
			if _, err := l.Insert(mem.ValueMask + 1); err == nil {
				t.Error("Insert accepted out-of-range key")
			}
		})
	}
}

// TestQuickSetModel property-tests the list against a map model over random
// operation scripts.
func TestQuickSetModel(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				w := mk(t)
				l := newList(t, w)
				defer l.Close()

				model := map[Key]bool{}
				for i := 0; i < 400; i++ {
					k := Key(rng.Intn(40))
					switch rng.Intn(3) {
					case 0:
						ok, err := l.Insert(k)
						if err != nil || ok == model[k] {
							return false
						}
						model[k] = true
					case 1:
						if l.Delete(k) != model[k] {
							return false
						}
						delete(model, k)
					case 2:
						if l.Contains(k) != model[k] {
							return false
						}
					}
				}
				if l.Len() != len(model) {
					return false
				}
				for _, k := range l.Keys() {
					if !model[k] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCloseReclaimsEverything(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			for k := Key(0); k < 300; k++ {
				mustInsert(t, l, k)
			}
			for k := Key(0); k < 300; k += 3 {
				l.Delete(k)
			}
			w.closeAndDrain(l)
			if got := w.h.Stats().LiveObjects; got != 0 {
				t.Errorf("LiveObjects = %d after Close, want 0", got)
			}
		})
	}
}

// TestConcurrentDisjointKeys has each worker churn its own key range; final
// contents must be exactly each worker's last state, with no leaks and no
// corruption.
func TestConcurrentDisjointKeys(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)

			const workers, keysPerW, rounds = 4, 16, 400
			var wg sync.WaitGroup
			finals := make([]map[Key]bool, workers)
			for p := 0; p < workers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p) + 5))
					mine := map[Key]bool{}
					base := Key(p * 1000)
					for i := 0; i < rounds; i++ {
						k := base + Key(rng.Intn(keysPerW))
						if rng.Intn(2) == 0 {
							ok, err := l.Insert(k)
							if err != nil {
								t.Errorf("Insert: %v", err)
								return
							}
							if ok == mine[k] {
								t.Errorf("Insert(%d) = %v but model says %v", k, ok, mine[k])
								return
							}
							mine[k] = true
						} else {
							if l.Delete(k) != mine[k] {
								t.Errorf("Delete(%d) disagrees with model", k)
								return
							}
							delete(mine, k)
						}
					}
					finals[p] = mine
				}(p)
			}
			wg.Wait()

			want := 0
			for p := 0; p < workers; p++ {
				for k := range finals[p] {
					want++
					if !l.Contains(k) {
						t.Errorf("key %d missing from final set", k)
					}
				}
			}
			if got := l.Len(); got != want {
				t.Errorf("Len = %d, want %d", got, want)
			}
			w.closeAndDrain(l)
			hs := w.h.Stats()
			if hs.LiveObjects != 0 || hs.Corruptions != 0 || hs.DoubleFrees != 0 {
				t.Errorf("Live=%d Corruptions=%d DoubleFrees=%d, want 0/0/0",
					hs.LiveObjects, hs.Corruptions, hs.DoubleFrees)
			}
		})
	}
}

// TestConcurrentContendedKeys has all workers fight over a tiny key space;
// the success counts must balance: inserts won − deletes won == final
// presence, per key.
func TestConcurrentContendedKeys(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)

			const workers, rounds, keys = 6, 500, 4
			var insertWins, deleteWins [keys]atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < workers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p) + 31))
					for i := 0; i < rounds; i++ {
						k := Key(rng.Intn(keys))
						if rng.Intn(2) == 0 {
							ok, err := l.Insert(k)
							if err != nil {
								t.Errorf("Insert: %v", err)
								return
							}
							if ok {
								insertWins[k].Add(1)
							}
						} else if l.Delete(k) {
							deleteWins[k].Add(1)
						}
					}
				}(p)
			}
			wg.Wait()

			for k := 0; k < keys; k++ {
				present := int64(0)
				if l.Contains(Key(k)) {
					present = 1
				}
				if got := insertWins[k].Load() - deleteWins[k].Load(); got != present {
					t.Errorf("key %d: insertWins-deleteWins = %d, presence = %d", k, got, present)
				}
			}
			w.closeAndDrain(l)
			hs := w.h.Stats()
			if hs.LiveObjects != 0 || hs.Corruptions != 0 {
				t.Errorf("Live=%d Corruptions=%d, want 0/0", hs.LiveObjects, hs.Corruptions)
			}
		})
	}
}

// TestHelpingUnlinksCorpses verifies that a logically deleted node whose
// physical unlink was suppressed is cleaned up by a later traversal.
func TestHelpingUnlinksCorpses(t *testing.T) {
	for name, mk := range worldFactories() {
		t.Run(name, func(t *testing.T) {
			w := mk(t)
			l := newList(t, w)
			defer l.Close()
			mustInsert(t, l, 1)
			mustInsert(t, l, 2)
			mustInsert(t, l, 3)

			// Mark 2 dead directly (simulating a deleter that died
			// between its logical and physical phases).
			pred, curr := l.search(2)
			if curr == 0 || w.rc.WordLoad(l.keyA(curr)) != 2 {
				t.Fatal("search(2) did not find the node")
			}
			if !w.rc.WordCAS(l.deadA(curr), 0, 1) {
				t.Fatal("mark failed")
			}
			w.rc.Destroy(pred, curr)

			if l.Contains(2) {
				t.Error("Contains(2) true for a marked node")
			}
			// A traversal past the corpse must unlink it; afterwards
			// only live nodes remain reachable.
			if got := l.Len(); got != 2 {
				t.Errorf("Len = %d, want 2", got)
			}
			if !l.Contains(3) || !l.Contains(1) {
				t.Error("live keys lost while helping")
			}
			got := l.Keys()
			if len(got) != 2 || got[0] != 1 || got[1] != 3 {
				t.Errorf("Keys = %v, want [1 3]", got)
			}
		})
	}
}
