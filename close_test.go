package lfrc_test

import (
	"encoding/json"
	"testing"

	"lfrc"
)

// closer is any structure handle; every wrapper shares the embedded handle's
// idempotent Close.
type closer interface{ Close() }

func TestCloseIsIdempotent(t *testing.T) {
	sys, err := lfrc.New()
	if err != nil {
		t.Fatal(err)
	}

	d, err := sys.NewDeque()
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.NewQueue()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.NewStack()
	if err != nil {
		t.Fatal(err)
	}
	set, err := sys.NewSet()
	if err != nil {
		t.Fatal(err)
	}

	if err := d.PushLeft(1); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(2); err != nil {
		t.Fatal(err)
	}
	if err := st.Push(3); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Insert(4); err != nil {
		t.Fatal(err)
	}

	for _, c := range []closer{d, q, st, set} {
		c.Close()
		c.Close() // second Close must be a no-op, not a double free
		c.Close()
	}

	// Every read on a closed structure is inert: it finds nothing and
	// touches none of the freed memory.
	if v, ok := d.PopLeft(); ok {
		t.Errorf("PopLeft after Close = %d, true", v)
	}
	if v, ok := d.PopRight(); ok {
		t.Errorf("PopRight after Close = %d, true", v)
	}
	for v := range d.Drain() {
		t.Errorf("Drain after Close yielded %d", v)
	}
	if v, ok := q.Dequeue(); ok {
		t.Errorf("Dequeue after Close = %d, true", v)
	}
	if v, ok := st.Pop(); ok {
		t.Errorf("Pop after Close = %d, true", v)
	}
	if set.Contains(4) {
		t.Error("Contains after Close = true")
	}
	if set.Delete(4) {
		t.Error("Delete after Close = true")
	}
	if k, ok := set.PopMin(); ok {
		t.Errorf("PopMin after Close = %d, true", k)
	}
	if n := set.Len(); n != 0 {
		t.Errorf("Len after Close = %d", n)
	}
	if keys := set.Keys(); len(keys) != 0 {
		t.Errorf("Keys after Close = %v", keys)
	}

	s := sys.Stats()
	if s.Heap.Corruptions != 0 {
		t.Errorf("Corruptions = %d after reads on closed structures, want 0", s.Heap.Corruptions)
	}
	if s.Heap.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d after closing every structure, want 0", s.Heap.LiveObjects)
	}
	if s.Heap.DoubleFrees != 0 {
		t.Errorf("DoubleFrees = %d, want 0: repeated Close re-ran teardown", s.Heap.DoubleFrees)
	}
	if s.RC.FreeErrors != 0 {
		t.Errorf("FreeErrors = %d, want 0", s.RC.FreeErrors)
	}
	if audit := sys.Audit(); len(audit) != 0 {
		t.Errorf("Audit after close: %v", audit)
	}
}

func TestUnifiedStats(t *testing.T) {
	sys, err := lfrc.New(lfrc.WithAllocShards(2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.NewStack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := st.Push(lfrc.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for {
		if _, ok := st.Pop(); !ok {
			break
		}
	}

	s := sys.Stats()
	if s.Engine != sys.EngineName() {
		t.Errorf("Stats.Engine = %q, want %q", s.Engine, sys.EngineName())
	}
	if s.Alloc.Shards != 2 || len(s.Alloc.PerShard) != 2 {
		t.Errorf("Alloc.Shards = %d with %d per-shard entries, want 2", s.Alloc.Shards, len(s.Alloc.PerShard))
	}
	if s.Heap.Allocs == 0 || s.Heap.Frees == 0 {
		t.Errorf("Stats.Heap not populated: %+v", s.Heap)
	}
	if s.RC.Loads == 0 || s.RC.CASOps == 0 {
		t.Errorf("Stats.RC not populated: %+v", s.RC)
	}
	var perShardAllocs int64
	for _, sh := range s.Alloc.PerShard {
		perShardAllocs += sh.Allocs
	}
	if perShardAllocs != s.Heap.Allocs {
		t.Errorf("per-shard allocs sum to %d, Heap.Allocs = %d", perShardAllocs, s.Heap.Allocs)
	}

	// The JSON encoding is a stable external surface (cmd/lfrcbench embeds
	// it in experiment output); the tags must not drift.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"engine", "heap", "rc", "alloc", "zombies"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("Stats JSON missing top-level key %q in %s", key, raw)
		}
	}
	heap, _ := decoded["heap"].(map[string]any)
	for _, key := range []string{"allocs", "frees", "recycles", "live_objects", "live_words", "high_water", "double_frees", "corruptions", "alloc_failures"} {
		if _, ok := heap[key]; !ok {
			t.Errorf("Stats JSON heap section missing key %q", key)
		}
	}
	alloc, _ := decoded["alloc"].(map[string]any)
	for _, key := range []string{"shards", "fill_target", "global_free_listed", "per_shard"} {
		if _, ok := alloc[key]; !ok {
			t.Errorf("Stats JSON alloc section missing key %q", key)
		}
	}
}
