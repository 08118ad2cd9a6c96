package workload

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"lfrc/internal/mem"
)

// Scale globally multiplies experiment iteration counts; cmd/lfrcbench
// exposes it as -scale. 1 gives quick, CI-friendly runs.
type Scale int

func (s Scale) times(n int) int {
	if s < 1 {
		s = 1
	}
	return int(s) * n
}

// RunE1 reproduces the paper's §5 argument for DCAS: a CAS-only load
// protocol ("naive", the Valois approach without type-stable memory) writes
// to freed memory when the referent is freed between the pointer read and
// the count increment, while the DCAS-based LFRCLoad never does.
//
// The adversarial interleaving the paper describes — the loading thread is
// preempted inside its read-then-increment window while another thread
// swings the pointer and frees the old referent — is injected directly via
// the load hooks: on a fixed fraction of windows, the shared pointer is
// swung to a fresh object (freeing the displaced referent) before the load
// resumes. The identical injection is applied to both protocols; the DCAS
// protocol simply retries while the naive protocol stomps on poisoned
// memory. Natural (uninjected) concurrent churn from a second reader runs
// throughout.
func RunE1(kind EngineKind, scale Scale) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "safe DCAS load vs naive CAS-only load under adversarial preemption",
		Claim:  "§5: with CAS alone \"there is a risk that the object will be freed before we increment the reference count\"; DCAS closes the window",
		Header: []string{"protocol", "engine", "loads", "injected swings", "poisoned rc updates", "heap corruptions", "double frees"},
		Notes: []string{
			"expected shape: naive > 0 corruption events, safe == 0 under the identical injected schedule",
			"heap corruptions include naive loaders that crashed following a garbage ref (recovered)",
		},
	}

	loadsPerRun := scale.times(20_000)
	for _, naive := range []bool{false, true} {
		env := NewEnv(kind)
		rc, h := env.RC, env.Heap
		holder, err := rc.NewObject(env.CellType)
		if err != nil {
			t.Notes = append(t.Notes, "setup failed: "+err.Error())
			return t
		}
		a := h.FieldAddr(holder, 0)
		seed, _ := rc.NewObject(env.SnarkTypes.SNode)
		rc.StoreAlloc(a, seed)

		// The injected adversary: every 4th window, swing the shared
		// pointer to a fresh object, freeing the displaced referent
		// (unless some reader still holds it counted).
		var windows, swings atomic.Int64
		inject := func(mem.Ref) {
			if windows.Add(1)%4 != 0 {
				return
			}
			n, err := rc.NewObject(env.SnarkTypes.SNode)
			if err != nil {
				return
			}
			rc.StoreAlloc(a, n)
			swings.Add(1)
		}
		rc.LoadHook = inject
		rc.NaiveHook = inject

		// step releases the previous reference first, as a loader with no
		// stake in the target (the paper's scenario), and then loads unless
		// the loader is done. The naive protocol can hand back a ref to
		// recycled memory, whose Destroy then follows garbage out of the
		// heap and panics; such a crash is counted as a heap corruption and
		// the loader carries on empty-handed.
		var crashes atomic.Int64
		step := func(dst *mem.Ref, load bool) {
			if naive {
				defer func() {
					if recover() != nil {
						crashes.Add(1)
						*dst = 0
					}
				}()
			}
			rc.Destroy(*dst)
			*dst = 0
			if !load {
				return
			}
			if naive {
				rc.NaiveLoad(a, dst)
			} else {
				rc.Load(a, dst)
			}
		}

		var (
			stop atomic.Bool
			wg   sync.WaitGroup
		)
		// A second reader supplies natural concurrent churn.
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst mem.Ref
			for !stop.Load() {
				step(&dst, true)
				runtime.Gosched()
			}
			step(&dst, false)
		}()

		var dst mem.Ref
		for i := 0; i < loadsPerRun; i++ {
			step(&dst, true)
		}
		step(&dst, false)
		stop.Store(true)
		wg.Wait()

		name := "safe (LFRCLoad)"
		if naive {
			name = "naive (CAS-only)"
		}
		hs, rs := h.Stats(), rc.Stats()
		t.AddRow(name, kind.String(), rs.Loads, swings.Load(), rs.PoisonedRCUpdates, hs.Corruptions+crashes.Load(), hs.DoubleFrees)
	}
	return t
}

// RunE2 checks leak freedom (paper §1: "if the number of pointers is zero,
// then the reference count eventually becomes zero... so that it can be
// freed"): after a randomized concurrent workload and teardown, zero live
// objects remain for every structure.
func RunE2(kind EngineKind, scale Scale) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "leak freedom after concurrent churn and teardown",
		Claim:  "§1: objects are eventually freed when no pointers remain (acyclic garbage)",
		Header: []string{"structure", "engine", "allocs", "frees", "live after close", "corruptions"},
		Notes:  []string{"expected shape: live after close == 0 for every structure"},
	}

	const workers = 4
	perWorker := scale.times(3000)

	run := func(name string, make func(env *Env) (func(op int, v uint64), func())) {
		env := NewEnv(kind)
		apply, closeFn := make(env)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w) + 99))
				for i := 0; i < perWorker; i++ {
					apply(rng.Intn(4), uint64(w)<<32|uint64(i)+1)
				}
			}(w)
		}
		wg.Wait()
		closeFn()
		hs := env.Heap.Stats()
		t.AddRow(name, kind.String(), hs.Allocs, hs.Frees, hs.LiveObjects, hs.Corruptions)
	}

	run("snark deque", func(env *Env) (func(int, uint64), func()) {
		d, _ := env.NewDeque()
		return func(op int, v uint64) {
			switch op {
			case 0:
				_ = d.PushLeft(v)
			case 1:
				_ = d.PushRight(v)
			case 2:
				d.PopLeft()
			default:
				d.PopRight()
			}
		}, d.Close
	})
	run("ms queue", func(env *Env) (func(int, uint64), func()) {
		q, _ := env.NewQueue()
		return func(op int, v uint64) {
			if op < 2 {
				_ = q.Enqueue(v)
			} else {
				q.Dequeue()
			}
		}, q.Close
	})
	run("treiber stack", func(env *Env) (func(int, uint64), func()) {
		s, _ := env.NewStack()
		return func(op int, v uint64) {
			if op < 2 {
				_ = s.Push(v)
			} else {
				s.Pop()
			}
		}, s.Close
	})
	return t
}

// RunE3 contrasts memory footprints (paper §1: LFRC "allows the memory
// consumption of the implementation to grow and shrink over time", unlike
// free-list schemes [19]): both queues run identical grow/drain phases and
// the live words on each heap are sampled after every phase.
func RunE3(kind EngineKind, scale Scale) *Table {
	t := &Table{
		ID:     "E3",
		Title:  "footprint over grow/drain phases: LFRC vs Valois type-stable pool",
		Claim:  "§1/§5: LFRC storage shrinks after drains; Valois's free list \"prevent[s] the space consumption of a list from shrinking over time\"",
		Header: []string{"phase", "lfrc live words", "valois live words"},
		Notes: []string{
			"expected shape: lfrc returns to its resting footprint after each drain; valois ratchets to the high-water mark",
		},
	}

	lfrcEnv := NewEnv(kind)
	lq, err := lfrcEnv.NewQueue()
	if err != nil {
		t.Notes = append(t.Notes, "setup failed: "+err.Error())
		return t
	}
	valEnv := NewEnv(kind)
	vq, err := valEnv.NewValoisQueue()
	if err != nil {
		t.Notes = append(t.Notes, "setup failed: "+err.Error())
		return t
	}

	big := scale.times(2000)
	phases := []struct {
		name string
		grow int // elements to add; 0 means drain completely
	}{
		{name: "start", grow: -1},
		{name: "grow to N", grow: big},
		{name: "drain", grow: 0},
		{name: "grow to N/2", grow: big / 2},
		{name: "drain", grow: 0},
	}
	for _, ph := range phases {
		switch {
		case ph.grow > 0:
			for i := 0; i < ph.grow; i++ {
				_ = lq.Enqueue(uint64(i + 1))
				_ = vq.Enqueue(uint64(i + 1))
			}
		case ph.grow == 0:
			for {
				if _, ok := lq.Dequeue(); !ok {
					break
				}
			}
			for {
				if _, ok := vq.Dequeue(); !ok {
					break
				}
			}
		}
		t.AddRow(ph.name, lfrcEnv.Heap.Stats().LiveWords, valEnv.Heap.Stats().LiveWords)
	}
	ps := vq.PoolStats()
	t.Notes = append(t.Notes,
		"valois pool high water: "+strconv.FormatInt(ps.HighWater, 10)+" nodes, none ever returned to the heap")
	lq.Close()
	vq.Close()
	return t
}
