// Benchmarks: one per experiment table in EXPERIMENTS.md (E1..E9, A1..A3).
// They exercise the same code paths as cmd/lfrcbench but in testing.B form,
// so `go test -bench=. -benchmem` regenerates the per-operation numbers;
// shape metrics (leaks, corruption counts) are attached via b.ReportMetric.
package lfrc_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"lfrc"
	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/gcdep"
	"lfrc/internal/gctrace"
	"lfrc/internal/mem"
	"lfrc/internal/snark"
	"lfrc/internal/valois"
	"lfrc/internal/watchdog"
	"lfrc/internal/workload"
)

// benchEnv builds a heap+engine+rc with the snark types registered.
func benchEnv(b *testing.B, kind workload.EngineKind) *workload.Env {
	b.Helper()
	return workload.NewEnv(kind)
}

// BenchmarkE1SafeVsNaiveLoad measures the two load protocols under pointer
// churn and reports corruption events per operation (the shape metric:
// safe == 0, naive > 0).
func BenchmarkE1SafeVsNaiveLoad(b *testing.B) {
	for _, naive := range []bool{false, true} {
		name := "safe"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			env := benchEnv(b, workload.EngineLocking)
			rc, h := env.RC, env.Heap
			holder, _ := rc.NewObject(env.CellType)
			a := h.FieldAddr(holder, 0)
			seed, _ := rc.NewObject(env.SnarkTypes.SNode)
			rc.StoreAlloc(a, seed)

			var n int
			inject := func(mem.Ref) {
				n++
				if n%4 != 0 {
					return
				}
				if fresh, err := rc.NewObject(env.SnarkTypes.SNode); err == nil {
					rc.StoreAlloc(a, fresh)
				}
			}
			rc.LoadHook = inject
			rc.NaiveHook = inject

			var dst mem.Ref
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc.Destroy(dst)
				dst = 0
				if naive {
					rc.NaiveLoad(a, &dst)
				} else {
					rc.Load(a, &dst)
				}
			}
			b.StopTimer()
			rc.Destroy(dst)
			poisoned := rc.Stats().PoisonedRCUpdates
			b.ReportMetric(float64(poisoned)/float64(b.N), "poisoned/op")
		})
	}
}

// BenchmarkE2LeakFreedom performs random deque operations and reports the
// objects left live after teardown (must be 0).
func BenchmarkE2LeakFreedom(b *testing.B) {
	env := benchEnv(b, workload.EngineLocking)
	d, err := env.NewDeque()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch rng.Intn(4) {
		case 0:
			_ = d.PushLeft(uint64(i + 1))
		case 1:
			_ = d.PushRight(uint64(i + 1))
		case 2:
			d.PopLeft()
		default:
			d.PopRight()
		}
	}
	b.StopTimer()
	d.Close()
	b.ReportMetric(float64(env.Heap.Stats().LiveObjects), "leaked")
	b.ReportMetric(float64(env.Heap.Stats().Corruptions), "corruptions")
}

// BenchmarkE3FootprintShrink runs grow/drain waves and reports the resting
// footprint ratio after draining (must be 1.0: footprint fully returns).
func BenchmarkE3FootprintShrink(b *testing.B) {
	b.Run("lfrc", func(b *testing.B) {
		env := benchEnv(b, workload.EngineLocking)
		q, err := env.NewQueue()
		if err != nil {
			b.Fatal(err)
		}
		resting := env.Heap.Stats().LiveWords
		const wave = 500
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < wave; j++ {
				_ = q.Enqueue(uint64(j + 1))
			}
			for {
				if _, ok := q.Dequeue(); !ok {
					break
				}
			}
		}
		b.StopTimer()
		final := env.Heap.Stats().LiveWords
		b.ReportMetric(float64(final)/float64(resting), "resting-ratio")
		q.Close()
	})
	b.Run("valois", func(b *testing.B) {
		env := benchEnv(b, workload.EngineLocking)
		q, err := env.NewValoisQueue()
		if err != nil {
			b.Fatal(err)
		}
		resting := env.Heap.Stats().LiveWords
		const wave = 500
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < wave; j++ {
				_ = q.Enqueue(uint64(j + 1))
			}
			for {
				if _, ok := q.Dequeue(); !ok {
					break
				}
			}
		}
		b.StopTimer()
		final := env.Heap.Stats().LiveWords
		b.ReportMetric(float64(final)/float64(resting), "resting-ratio")
		q.Close()
	})
}

// BenchmarkE4StallProgress measures deque operation cost while another
// worker is parked mid-operation (lock-free: finite; mutex: the benchmark
// would deadlock, which is the claim — so the mutex row measures ops while
// the lock is *not* held by the victim, and the stall behaviour itself is
// covered by the E4 table and TestE4Shape).
func BenchmarkE4StallProgress(b *testing.B) {
	env := benchEnv(b, workload.EngineLocking)
	park := make(chan struct{})
	armed := make(chan struct{}, 1)
	armed <- struct{}{}
	var parked chan struct{} = make(chan struct{})
	d, err := env.NewDeque(snark.WithBeforeDCAS(func() {
		select {
		case <-armed:
			close(parked)
			<-park
		default:
		}
	}))
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = d.PushRight(1) }() // victim parks
	<-parked

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.PushLeft(uint64(i + 2))
		d.PopRight()
	}
	b.StopTimer()
	close(park)
}

// BenchmarkE5Throughput compares the deque implementations under parallel
// mixed load.
func BenchmarkE5Throughput(b *testing.B) {
	impls := []struct {
		name string
		mk   func(b *testing.B) (workload.Deque, func())
	}{
		{name: "lfrc-locking", mk: func(b *testing.B) (workload.Deque, func()) {
			env := benchEnv(b, workload.EngineLocking)
			d, err := env.NewDeque()
			if err != nil {
				b.Fatal(err)
			}
			return workload.SnarkAdapter{D: d}, d.Close
		}},
		{name: "lfrc-mcas", mk: func(b *testing.B) (workload.Deque, func()) {
			env := benchEnv(b, workload.EngineMCAS)
			d, err := env.NewDeque()
			if err != nil {
				b.Fatal(err)
			}
			return workload.SnarkAdapter{D: d}, d.Close
		}},
		{name: "gcdep", mk: func(b *testing.B) (workload.Deque, func()) {
			return workload.GcdepAdapter{D: gcdep.New()}, func() {}
		}},
		{name: "mutex", mk: func(b *testing.B) (workload.Deque, func()) {
			return workload.NewMutexDeque(), func() {}
		}},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			d, cleanup := impl.mk(b)
			for i := 0; i < 128; i++ {
				_ = d.PushRight(uint64(i + 1))
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				v := uint64(1)
				for pb.Next() {
					switch rng.Intn(4) {
					case 0:
						_ = d.PushLeft(v)
						v++
					case 1:
						_ = d.PushRight(v)
						v++
					case 2:
						d.PopLeft()
					default:
						d.PopRight()
					}
				}
			})
			b.StopTimer()
			cleanup()
		})
	}
}

// BenchmarkE6MicroOps measures each LFRC operation on both engines.
func BenchmarkE6MicroOps(b *testing.B) {
	for _, kind := range workload.Engines {
		env := benchEnv(b, kind)
		rc, h := env.RC, env.Heap
		holder, _ := rc.NewObject(env.CellType)
		a := h.FieldAddr(holder, 0)
		holder2, _ := rc.NewObject(env.CellType)
		a2 := h.FieldAddr(holder2, 0)
		obj, _ := rc.NewObject(env.SnarkTypes.SNode)
		rc.Store(a, obj)
		rc.Store(a2, obj)

		b.Run("Load/"+kind.String(), func(b *testing.B) {
			var dst mem.Ref
			for i := 0; i < b.N; i++ {
				rc.Load(a, &dst)
			}
			rc.Destroy(dst)
		})
		b.Run("Store/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rc.Store(a, obj)
			}
		})
		b.Run("Copy/"+kind.String(), func(b *testing.B) {
			var local mem.Ref
			for i := 0; i < b.N; i++ {
				rc.Copy(&local, obj)
			}
			rc.Destroy(local)
		})
		b.Run("CAS/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rc.CAS(a, obj, obj)
			}
		})
		b.Run("DCAS/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rc.DCAS(a, a2, obj, obj, obj, obj)
			}
		})
		b.Run("NewDestroy/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, _ := rc.NewObject(env.SnarkTypes.SNode)
				rc.Destroy(n)
			}
		})
	}
}

// BenchmarkE7CycleLeak runs push+pop pairs under both sentinel conventions
// and reports objects leaked per pop.
func BenchmarkE7CycleLeak(b *testing.B) {
	for _, cyclic := range []bool{false, true} {
		name := "null-sentinels"
		if cyclic {
			name = "self-pointer-sentinels"
		}
		b.Run(name, func(b *testing.B) {
			env := benchEnv(b, workload.EngineLocking)
			var opts []snark.Option
			if cyclic {
				opts = append(opts, snark.WithCyclicSentinels())
			}
			d, err := env.NewDeque(opts...)
			if err != nil {
				b.Fatal(err)
			}
			// Keep the deque non-trivial so pops take the general
			// (sentinel-installing) path, not the one-node fast path.
			for i := 0; i < 8; i++ {
				_ = d.PushLeft(uint64(i + 1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = d.PushRight(uint64(i + 1))
				d.PopRight()
			}
			b.StopTimer()
			d.Close()
			b.ReportMetric(float64(env.Heap.Stats().LiveObjects)/float64(b.N), "leaked/op")
		})
	}
}

// BenchmarkE8BackupTrace measures the backup tracing collector reclaiming
// the sentinel cycles one churn round strands.
func BenchmarkE8BackupTrace(b *testing.B) {
	env := benchEnv(b, workload.EngineLocking)
	d, err := env.NewDeque(snark.WithCyclicSentinels())
	if err != nil {
		b.Fatal(err)
	}
	gc := gctrace.New(env.Heap)
	gc.AddRoot(d.Anchor())

	// Keep the deque non-trivial so pops strand sentinel cycles.
	for i := 0; i < 8; i++ {
		_ = d.PushLeft(uint64(i + 1))
	}
	const churn = 200
	freed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < churn; j++ {
			_ = d.PushRight(uint64(j + 1))
			d.PopRight()
		}
		b.StartTimer()
		res := gc.Collect()
		freed += res.Freed
	}
	b.StopTimer()
	b.ReportMetric(float64(freed)/float64(b.N), "freed/collect")
}

// BenchmarkE9Equivalence mirrors one operation on the GC-dependent and
// LFRC deques and reports mismatches (must be 0).
func BenchmarkE9Equivalence(b *testing.B) {
	env := benchEnv(b, workload.EngineLocking)
	ld, err := env.NewDeque()
	if err != nil {
		b.Fatal(err)
	}
	gd := gcdep.New()
	rng := rand.New(rand.NewSource(7))
	mismatches := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i + 1)
		switch rng.Intn(4) {
		case 0:
			_ = ld.PushLeft(v)
			gd.PushLeft(v)
		case 1:
			_ = ld.PushRight(v)
			gd.PushRight(v)
		case 2:
			lv, lok := ld.PopLeft()
			gv, gok := gd.PopLeft()
			if lok != gok || lv != gv {
				mismatches++
			}
		default:
			lv, lok := ld.PopRight()
			gv, gok := gd.PopRight()
			if lok != gok || lv != gv {
				mismatches++
			}
		}
	}
	b.StopTimer()
	ld.Close()
	b.ReportMetric(float64(mismatches), "mismatches")
}

// BenchmarkA1EngineAblation measures the raw engine primitives head to head.
func BenchmarkA1EngineAblation(b *testing.B) {
	for _, kind := range workload.Engines {
		h := mem.NewHeap()
		var e dcas.Engine
		if kind == workload.EngineMCAS {
			e = dcas.NewMCAS(h)
		} else {
			e = dcas.NewLocking(h)
		}
		cellT := h.MustRegisterType(mem.TypeDesc{Name: "cells", NumFields: 2})
		r := h.MustAlloc(cellT)
		a0, a1 := h.FieldAddr(r, 0), h.FieldAddr(r, 1)

		b.Run("CAS/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.CAS(a0, uint64(i), uint64(i+1))
			}
			e.Write(a0, 0)
		})
		b.Run("DCAS/"+kind.String(), func(b *testing.B) {
			e.Write(a0, 0)
			e.Write(a1, 0)
			for i := 0; i < b.N; i++ {
				e.DCAS(a0, a1, uint64(i), uint64(i), uint64(i+1), uint64(i+1))
			}
		})
		b.Run("Read/"+kind.String(), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += e.Read(a0)
			}
			_ = sink
		})
	}
}

// BenchmarkA2IncrementalDestroy measures dropping a 10k-node chain eagerly
// vs with a reclamation budget; ns/op is the pause the caller experiences.
func BenchmarkA2IncrementalDestroy(b *testing.B) {
	const chain = 10_000
	for _, budget := range []int{0, 64} {
		name := "eager"
		if budget > 0 {
			name = "budget64"
		}
		b.Run(name, func(b *testing.B) {
			var rcOpts []core.Option
			if budget > 0 {
				rcOpts = append(rcOpts, core.WithIncrementalDestroy(budget))
			}
			env := workload.NewEnv(workload.EngineLocking, rcOpts...)
			rc, h := env.RC, env.Heap
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var head mem.Ref
				for j := 0; j < chain; j++ {
					p, err := rc.NewObject(env.SnarkTypes.SNode)
					if err != nil {
						b.Fatal(err)
					}
					rc.StoreAlloc(h.FieldAddr(p, 0), head)
					head = p
				}
				b.StartTimer()
				rc.Destroy(head) // the measured pause
				b.StopTimer()
				rc.DrainZombies(0)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSetOps measures the DCAS-based sorted set against a mutex-map
// baseline (the set extension; see set.go).
func BenchmarkSetOps(b *testing.B) {
	b.Run("lfrc-set", func(b *testing.B) {
		sys, err := lfrc.New()
		if err != nil {
			b.Fatal(err)
		}
		s, err := sys.NewSet()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(rng.Intn(256))
			switch rng.Intn(3) {
			case 0:
				_, _ = s.Insert(k)
			case 1:
				s.Delete(k)
			default:
				s.Contains(k)
			}
		}
		b.StopTimer()
		s.Close()
	})
	b.Run("mutex-map", func(b *testing.B) {
		var (
			mu sync.Mutex
			m  = make(map[uint64]bool)
		)
		rng := rand.New(rand.NewSource(3))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(rng.Intn(256))
			mu.Lock()
			switch rng.Intn(3) {
			case 0:
				m[k] = true
			case 1:
				delete(m, k)
			default:
				_ = m[k]
			}
			mu.Unlock()
		}
	})
}

// BenchmarkFacadeDeque measures the public API end to end.
func BenchmarkFacadeDeque(b *testing.B) {
	sys, err := lfrc.New()
	if err != nil {
		b.Fatal(err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.PushRight(uint64(i + 1))
		d.PopLeft()
	}
	b.StopTimer()
	d.Close()
}

// BenchmarkValoisVsLFRCQueue compares per-op cost of the two reclamation
// schemes on the same queue algorithm.
func BenchmarkValoisVsLFRCQueue(b *testing.B) {
	b.Run("lfrc", func(b *testing.B) {
		env := benchEnv(b, workload.EngineLocking)
		q, err := env.NewQueue()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = q.Enqueue(uint64(i + 1))
			q.Dequeue()
		}
		b.StopTimer()
		q.Close()
	})
	b.Run("valois", func(b *testing.B) {
		h := mem.NewHeap()
		q, err := valois.New(h, valois.MustRegisterTypes(h))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = q.Enqueue(uint64(i + 1))
			q.Dequeue()
		}
		b.StopTimer()
		q.Close()
	})
}

// BenchmarkAllocShards measures the allocator itself — the experiment A3
// fast path — on an alloc/free mix over three size classes, with the shard
// count pinned to 1 (the pre-sharding layout: one free list per size, every
// bump on the global cursor) and to GOMAXPROCS, serially and under
// RunParallel.
func BenchmarkAllocShards(b *testing.B) {
	newTypes := func(h *mem.Heap) []mem.TypeID {
		return []mem.TypeID{
			h.MustRegisterType(mem.TypeDesc{Name: "a2", NumFields: 2, PtrFields: []int{0}}),
			h.MustRegisterType(mem.TypeDesc{Name: "a5", NumFields: 5, PtrFields: []int{0, 1}}),
			h.MustRegisterType(mem.TypeDesc{Name: "a13", NumFields: 13}),
		}
	}
	body := func(b *testing.B, h *mem.Heap, types []mem.TypeID, next func() bool) {
		var local []mem.Ref
		i := 0
		for next() {
			if len(local) < 32 || i%3 != 0 {
				r, err := h.Alloc(types[i%len(types)])
				if err != nil {
					b.Error(err)
					return
				}
				local = append(local, r)
			} else {
				r := local[len(local)-1]
				local = local[:len(local)-1]
				if err := h.Free(r); err != nil {
					b.Error(err)
					return
				}
			}
			i++
		}
		for _, r := range local {
			_ = h.Free(r)
		}
	}
	for _, shards := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("shards=%d/g1", shards), func(b *testing.B) {
			h := mem.NewHeap(mem.WithAllocShards(shards))
			types := newTypes(h)
			i := 0
			body(b, h, types, func() bool { i++; return i <= b.N })
		})
		b.Run(fmt.Sprintf("shards=%d/g%d", shards, runtime.GOMAXPROCS(0)), func(b *testing.B) {
			h := mem.NewHeap(mem.WithAllocShards(shards))
			types := newTypes(h)
			b.RunParallel(func(pb *testing.PB) {
				body(b, h, types, pb.Next)
			})
			st := h.Stats()
			if st.Corruptions != 0 || st.DoubleFrees != 0 {
				b.Fatalf("heap damage: %d corruptions, %d double frees", st.Corruptions, st.DoubleFrees)
			}
		})
	}
}

// BenchmarkObserverOverhead measures the flight recorder's cost on the
// balanced deque mix (experiment O1's workload) across observer modes:
// baseline (no recorder), disabled (recorder installed, sampling off — the
// fixed hot-path cost), the default 1-in-64 sampling, and full recording.
// The acceptance bar is that disabled stays within a few percent of
// baseline; compare with benchstat over -count=10 runs.
func BenchmarkObserverOverhead(b *testing.B) {
	modes := []struct {
		name string
		opts []lfrc.Option
	}{
		{"baseline", nil},
		{"disabled", []lfrc.Option{lfrc.WithObservability(lfrc.ObservabilityOptions{SampleEvery: -1})}},
		{"sampled64", []lfrc.Option{lfrc.WithObservability(lfrc.ObservabilityOptions{SampleEvery: 64})}},
		{"full", []lfrc.Option{lfrc.WithObservability(lfrc.ObservabilityOptions{SampleEvery: 1})}},
	}
	for _, m := range modes {
		b.Run(m.name+"/g1", func(b *testing.B) {
			sys, err := lfrc.New(m.opts...)
			if err != nil {
				b.Fatal(err)
			}
			d, err := sys.NewDeque()
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			for i := 0; i < 64; i++ {
				_ = d.PushRight(lfrc.Value(i + 1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch i % 4 {
				case 0:
					_ = d.PushLeft(lfrc.Value(i + 1))
				case 1:
					_ = d.PushRight(lfrc.Value(i + 1))
				case 2:
					d.PopLeft()
				case 3:
					d.PopRight()
				}
			}
		})
		b.Run(fmt.Sprintf("%s/g%d", m.name, runtime.GOMAXPROCS(0)), func(b *testing.B) {
			sys, err := lfrc.New(m.opts...)
			if err != nil {
				b.Fatal(err)
			}
			d, err := sys.NewDeque()
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			for i := 0; i < 64; i++ {
				_ = d.PushRight(lfrc.Value(i + 1))
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					switch i % 4 {
					case 0:
						_ = d.PushLeft(lfrc.Value(i + 1))
					case 1:
						_ = d.PushRight(lfrc.Value(i + 1))
					case 2:
						d.PopLeft()
					case 3:
						d.PopRight()
					}
					i++
				}
			})
		})
	}
}

// benchDequeMix drives the balanced deque mix on a fresh system built with
// opts, serially or under RunParallel — the shared body of the telemetry
// overhead benchmarks below.
func benchDequeMix(b *testing.B, parallel bool, opts ...lfrc.Option) {
	sys, err := lfrc.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	d, err := sys.NewDeque()
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 64; i++ {
		_ = d.PushRight(lfrc.Value(i + 1))
	}
	step := func(i int) {
		switch i % 4 {
		case 0:
			_ = d.PushLeft(lfrc.Value(i + 1))
		case 1:
			_ = d.PushRight(lfrc.Value(i + 1))
		case 2:
			d.PopLeft()
		case 3:
			d.PopRight()
		}
	}
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				step(i)
				i++
			}
		})
	} else {
		for i := 0; i < b.N; i++ {
			step(i)
		}
	}
}

// BenchmarkLifecycleLedger measures the lifecycle ledger's cost on the
// balanced deque mix (experiment O2's workload): no ledger, the default
// 1-in-64 sampling, and full (every object tracked). Compare with benchstat
// over -count=10 runs.
func BenchmarkLifecycleLedger(b *testing.B) {
	modes := []struct {
		name string
		opts []lfrc.Option
	}{
		{"baseline", nil},
		{"sampled64", []lfrc.Option{lfrc.WithObservability(lfrc.ObservabilityOptions{LifecycleEvery: 64})}},
		{"full", []lfrc.Option{lfrc.WithObservability(lfrc.ObservabilityOptions{LifecycleEvery: 1})}},
	}
	for _, m := range modes {
		b.Run(m.name+"/g1", func(b *testing.B) { benchDequeMix(b, false, m.opts...) })
		b.Run(fmt.Sprintf("%s/g%d", m.name, runtime.GOMAXPROCS(0)), func(b *testing.B) {
			benchDequeMix(b, true, m.opts...)
		})
	}
}

// BenchmarkContention measures the contention observatory's cost on the
// balanced deque mix (experiment O3's workload). The observer mode isolates
// the tax: Contention implies the recorder, so its delta over
// observer64 alone is the observatory's own cost — failed-attempt
// attribution plus the wasted-ns aggregation tap. Under g1 there is no
// contention, so only the fixed per-retry-loop nil checks are visible.
func BenchmarkContention(b *testing.B) {
	modes := []struct {
		name string
		opts []lfrc.Option
	}{
		{"baseline", nil},
		{"observer64", []lfrc.Option{lfrc.WithObservability(lfrc.ObservabilityOptions{SampleEvery: 64})}},
		{"contention", []lfrc.Option{lfrc.WithObservability(lfrc.ObservabilityOptions{Contention: true, SampleEvery: 64})}},
	}
	for _, m := range modes {
		b.Run(m.name+"/g1", func(b *testing.B) { benchDequeMix(b, false, m.opts...) })
		b.Run(fmt.Sprintf("%s/g%d", m.name, runtime.GOMAXPROCS(0)), func(b *testing.B) {
			benchDequeMix(b, true, m.opts...)
		})
	}
}

// BenchmarkTimelineCapture measures one telemetry snapshot against a live
// system carrying real state (allocations, RC traffic, contention table,
// observer histograms) — the cost the background sampler pays every
// interval. The capture path is designed to allocate nothing and stay under
// 1µs/snapshot, and the benchmark fails outright past that bound so
// bench-smoke gates it (experiment O4).
func BenchmarkTimelineCapture(b *testing.B) {
	sys, err := lfrc.New(
		lfrc.WithTimeline(lfrc.TimelineOptions{Manual: true}),
		lfrc.WithObservability(lfrc.ObservabilityOptions{Contention: true, SampleEvery: 64}),
	)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer sys.Close()
	d, err := sys.NewDeque()
	if err != nil {
		b.Fatalf("NewDeque: %v", err)
	}
	for i := 0; i < 256; i++ {
		if err := d.PushRight(lfrc.Value(i)); err != nil {
			b.Fatalf("PushRight: %v", err)
		}
	}
	for i := 0; i < 128; i++ {
		d.PopLeft()
	}

	// Warm the capture path (first-touch of the ring slots, histogram
	// buckets) so the budget judges the steady-state cost the sampler
	// actually pays every interval, even under bench-smoke's -benchtime=1x.
	for i := 0; i < 16; i++ {
		sys.CaptureTimelineSample()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.CaptureTimelineSample()
	}
	b.StopTimer()

	// The budget check takes the best of a few fixed-size batches rather
	// than the b.N average: a scheduler preemption inside a tiny -benchtime
	// run must not fail the gate, while a real capture-path regression (a
	// full contention-table scan, an allocation) slows every batch and
	// still trips it.
	// Batches are kept short (~15µs) so on busy shared hardware at least
	// one lands between preemptions.
	best := time.Duration(1 << 62)
	for batch := 0; batch < 16; batch++ {
		const per = 16
		start := time.Now()
		for i := 0; i < per; i++ {
			sys.CaptureTimelineSample()
		}
		if d := time.Since(start) / per; d < best {
			best = d
		}
	}
	if best > time.Microsecond {
		b.Fatalf("timeline capture took %v/snapshot at best, budget is 1µs", best)
	}
}

// BenchmarkWatchdogQuietPath measures one watchdog rule evaluation over a
// healthy sample — the incremental cost the always-on watchdog adds to every
// timeline capture (experiment O6 measures the end-to-end overhead). The
// quiet path must stay allocation-free: a nonzero allocs/op here means a rule
// closure started boxing its evidence.
func BenchmarkWatchdogQuietPath(b *testing.B) {
	eng := watchdog.New(watchdog.Options{})
	var in watchdog.Input
	in.Sample.DurNS = int64(100 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Sample.Seq++
		in.Sample.TS += in.Sample.DurNS
		eng.Observe(&in)
	}
	b.StopTimer()
	if st := eng.Stats(); st.Firings != 0 {
		b.Fatalf("quiet-path benchmark fired %d incidents", st.Firings)
	}
}

// TestMain gives the parallel benchmarks a few schedulable threads even on
// single-CPU CI machines.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}
