// Package census takes on-demand whole-heap object-graph snapshots.
//
// Reference counting's classic blind spot is cyclic garbage: a cycle's counts
// never reach zero, so LFRC (PAPER.md §7) can never free it, and the sampled
// lifecycle auditor can only flag *candidates* from its 1-in-N ledger. The
// census is the ground truth the auditor lacks. It walks every allocated
// block (the heap knows each block's TypeID, and mem.TypeDesc.PtrFields gives
// the pointer layout), reads each pointer field through a side-effect-free
// load, and materializes the full reference graph plus per-object stored
// counts. From the graph it computes:
//
//   - reachability from the declared roots (collection anchors, plus any
//     extra roots the caller registers),
//   - unreachable-but-counted strongly connected components — cycle leaks,
//     with member lists and retained bytes,
//   - stored-RC vs. weighted in-edge mismatches, the per-object form of the
//     quiescent Audit (a link's weight is 1 under figure2 and its stash
//     under split, so a split count is a weight sum, not an in-degree),
//   - per-type retained-size attribution.
//
// The graph build is the only code that walks the heap as a graph. Take runs
// every pass over it; Audit (the quiescent count audit behind System.Audit)
// runs only the mismatch pass, uncapped; Garbage (the §7 backup collector's
// mark) runs only the reachability pass.
//
// The census is strictly read-only: every cell access is a plain atomic load
// (never an engine read, which would help — i.e. mutate — in-flight MCAS
// operations), it frees nothing and retains nothing. Taken while mutators
// run it is race-clean and internally consistent per cell, but edges and
// counts are a moving target; quiescent snapshots are exact.
//
// Zombies parked on the zombie stack by an incremental-destroy budget are
// live blocks with a zero stored count. They are classified "limbo", not
// leaked: they are already on a path to the allocator and merely awaiting a
// drain. Objects only such zombies still pin (they are parked with fields
// intact) are limbo too.
package census

import (
	"sync"
	"time"

	"lfrc/internal/mem"
)

// SchemaVersion identifies the Snapshot JSON schema. Bump it on any change
// to the key set; the golden test locks the current shape.
const SchemaVersion = 1

// Default caps on snapshot list lengths; counts always stay exact.
const (
	DefaultMaxCycles       = 64
	DefaultMaxCycleObjects = 32
	DefaultMaxMismatches   = 64
)

// Root is one declared reachability root.
type Root struct {
	// Ref is the root object.
	Ref uint32 `json:"ref"`

	// Name labels the structure kind that anchored it ("deque", "queue",
	// "stack", "set", "extra" for caller-registered roots).
	Name string `json:"name"`

	// Count is the number of registrations (external handles) holding it.
	Count int64 `json:"count"`
}

// Config describes how to take a snapshot.
type Config struct {
	// Heap is the arena to walk.
	Heap *mem.Heap

	// Read loads one heap cell without side effects (core.RC.SnapshotRead):
	// a plain atomic load that never helps an in-flight engine operation,
	// reporting descriptor-tagged cells as 0 after a bounded retry.
	Read func(mem.Addr) uint64

	// Decode interprets a raw pointer-cell word as (referent, count weight)
	// under the system's RC strategy (core.RC.DecodeLink): figure2 stores
	// bare refs at weight 1, split packs a weight stash beside the ref and
	// the stored count equals the weighted in-edge sum. Nil means the
	// bare-ref reading.
	Decode func(u uint64) (mem.Ref, int64)

	// Roots are the reachability roots, keyed by ref.
	Roots map[uint32]Root

	// Backend names the reclaimer ("lfrc"), recorded in the snapshot.
	Backend string

	// MaxCycles, MaxCycleObjects and MaxMismatches cap the snapshot's list
	// lengths (0 = package default). Aggregate counts are always exact.
	MaxCycles       int
	MaxCycleObjects int
	MaxMismatches   int
}

// Bucket is an (objects, bytes) pair for one reachability class.
type Bucket struct {
	Objects int64 `json:"objects"`
	Bytes   int64 `json:"bytes"`
}

// Object identifies one heap object in a snapshot list.
type Object struct {
	Ref  uint32 `json:"ref"`
	Type string `json:"type"`
	RC   uint64 `json:"rc"`
}

// Cycle is one unreachable-but-counted strongly connected component: garbage
// LFRC can never free on its own (only the backup tracing collector can).
type Cycle struct {
	// Key identifies the cycle across snapshots (a hash of the sorted
	// member refs); the diff uses it to tell new cycles from persisting
	// ones.
	Key string `json:"key"`

	// Size and Bytes cover the SCC members themselves (exact).
	Size  int64 `json:"size"`
	Bytes int64 `json:"bytes"`

	// RetainedObjects and RetainedBytes additionally count the unreachable
	// non-limbo garbage the cycle pins — everything that would become
	// collectable if the cycle were broken. Cycles reachable from one
	// another attribute shared downstream garbage to each.
	RetainedObjects int64 `json:"retained_objects"`
	RetainedBytes   int64 `json:"retained_bytes"`

	// Objects lists the members in address order, capped at
	// MaxCycleObjects; Truncated reports whether the cap bit.
	Objects   []Object `json:"objects"`
	Truncated bool     `json:"truncated"`
}

// Mismatch is one object whose stored reference count disagrees with its
// weighted in-edges plus root registrations. At quiescence any mismatch is a
// count bug (the per-object form of a failed Audit); while mutators run,
// in-flight operations produce transient ones.
type Mismatch struct {
	Ref      uint32 `json:"ref"`
	Type     string `json:"type"`
	Stored   uint64 `json:"stored"`
	Expected int64  `json:"expected"`
	Class    string `json:"class"` // reachable | unreachable | limbo
}

// TypeStat is per-type retained-size attribution.
type TypeStat struct {
	Name string `json:"name"`

	// Objects and Bytes cover every live object of the type.
	Objects int64 `json:"objects"`
	Bytes   int64 `json:"bytes"`

	ReachableObjects   int64 `json:"reachable_objects"`
	ReachableBytes     int64 `json:"reachable_bytes"`
	UnreachableObjects int64 `json:"unreachable_objects"`
	UnreachableBytes   int64 `json:"unreachable_bytes"`
	LimboObjects       int64 `json:"limbo_objects"`
	LimboBytes         int64 `json:"limbo_bytes"`
}

// Snapshot is one whole-heap census.
type Snapshot struct {
	SchemaVersion int    `json:"schema_version"`
	TS            int64  `json:"ts"`
	Backend       string `json:"backend"`

	// WallNS is how long the census took (experiment O5's cost metric).
	WallNS int64 `json:"wall_ns"`

	// Roots lists the declared roots, in ref order.
	Roots []Root `json:"roots"`

	// LiveObjects/LiveBytes count every live block; FreedSlots counts
	// carved-but-freed slots awaiting reuse.
	LiveObjects int64 `json:"live_objects"`
	LiveBytes   int64 `json:"live_bytes"`
	FreedSlots  int64 `json:"freed_slots"`

	// Edges counts materialized pointer edges between live objects;
	// DanglingEdges counts pointer fields naming a non-live target (freed
	// mid-walk, mid-reuse, or descriptor-suppressed — expected to be zero
	// at quiescence).
	Edges         int64 `json:"edges"`
	DanglingEdges int64 `json:"dangling_edges"`

	// Reachable / Unreachable / Limbo partition the live objects.
	// Unreachable is true garbage the mutator can no longer release
	// (cycle members and what they pin); Limbo is deferred-reclamation
	// husks and what those pin — already headed to the allocator.
	Reachable   Bucket `json:"reachable"`
	Unreachable Bucket `json:"unreachable"`
	Limbo       Bucket `json:"limbo"`

	// Cycle aggregates are exact; Cycles lists the largest (by retained
	// bytes), capped at MaxCycles.
	CycleCount   int64   `json:"cycle_count"`
	CycleObjects int64   `json:"cycle_objects"`
	CycleBytes   int64   `json:"cycle_bytes"`
	Cycles       []Cycle `json:"cycles"`

	// RCMismatchCount is exact; RCMismatches is capped at MaxMismatches.
	RCMismatchCount int64      `json:"rc_mismatch_count"`
	RCMismatches    []Mismatch `json:"rc_mismatches"`

	// Types is the per-type attribution, largest Bytes first.
	Types []TypeStat `json:"types"`

	// g retains the materialized graph for the DOT export; it is not
	// serialized, so a Snapshot decoded from JSON cannot render DOT.
	g *graph

	// cycleByType aggregates cycle members per type name (exact, before
	// list caps) for the pprof export's "cycle leak" class.
	cycleByType    map[string]Bucket
	cycleTypeOrder []string
}

// graph is the materialized object graph: every live block with its stored
// count and its decoded out-edges. materialize is the only code that walks
// the heap as a graph; every pass below reads the graph alone.
type graph struct {
	heap  *mem.Heap
	nodes []node
	outs  []edge // every node's out-edges, node by node

	// index maps a block's line number (ref / mem.LineWords) to its node
	// index plus one; 0 means no live block starts there. Every slot starts
	// on a line, so a line names at most one block.
	index []int32

	// Walk totals, copied into a snapshot by Take.
	freedSlots, edges, dangling, liveBytes int64
}

// node classes, in verdict order.
const (
	classReachable = iota
	classUnreachable
	classLimbo
)

func className(c uint8) string {
	switch c {
	case classReachable:
		return "reachable"
	case classUnreachable:
		return "unreachable"
	default:
		return "limbo"
	}
}

type node struct {
	ref   uint32
	typ   mem.TypeID
	gen   uint32 // slot generation the walk saw
	words int32
	rc    uint64
	first int32 // out-edges are outs[first:end]
	end   int32
	inw   int64 // weighted in-edge sum (self-edges included)
	class uint8
	root  bool
}

// edge is one pointer field naming a live object: the target's node index
// and the count weight the link carries (1 under figure2, the stash under
// split).
type edge struct {
	to int32
	w  int64
}

func (n *node) bytes() int64 { return int64(n.words) * 8 }

// out returns node i's out-edges.
func (g *graph) out(i int32) []edge { return g.outs[g.nodes[i].first:g.nodes[i].end] }

// lookup returns the node index of the live block at ref, or -1.
func (g *graph) lookup(ref uint64) int32 {
	k := ref / mem.LineWords
	if ref%mem.LineWords != 0 || k >= uint64(len(g.index)) {
		return -1
	}
	return g.index[k] - 1
}

// Take captures one census.
func Take(cfg Config) *Snapshot {
	start := time.Now()
	s := &Snapshot{
		SchemaVersion: SchemaVersion,
		TS:            start.UnixNano(),
		Backend:       cfg.Backend,
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultMaxCycles
	}
	if cfg.MaxCycleObjects == 0 {
		cfg.MaxCycleObjects = DefaultMaxCycleObjects
	}
	if cfg.MaxMismatches == 0 {
		cfg.MaxMismatches = DefaultMaxMismatches
	}

	g := materialize(cfg)
	s.g = g
	s.LiveObjects = int64(len(g.nodes))
	s.LiveBytes = g.liveBytes
	s.FreedSlots = g.freedSlots
	s.Edges = g.edges
	s.DanglingEdges = g.dangling
	for _, r := range cfg.Roots {
		s.Roots = append(s.Roots, r)
	}
	sortRoots(s.Roots)

	g.classify(cfg.Roots)
	for i := range g.nodes {
		n := &g.nodes[i]
		b := &s.Limbo
		switch n.class {
		case classReachable:
			b = &s.Reachable
		case classUnreachable:
			b = &s.Unreachable
		}
		b.Objects++
		b.Bytes += n.bytes()
	}
	findCycles(cfg, s, g)
	s.RCMismatchCount, s.RCMismatches = g.mismatches(cfg.Roots, cfg.MaxMismatches)
	attributeTypes(s, g)

	s.WallNS = time.Since(start).Nanoseconds()
	return s
}

// Audit runs the graph and mismatch passes only and returns every object
// whose stored count disagrees with its weighted in-edges plus root
// registrations, uncapped, in address order. At quiescence an empty result
// means every count is exact (the paper's §1 count invariant); this is the
// quiescent count audit.
func Audit(cfg Config) []Mismatch {
	g := materialize(cfg)
	defer spare.Put(g)
	g.classify(cfg.Roots)
	_, ms := g.mismatches(cfg.Roots, -1)
	return ms
}

// Sweep is what the backup tracing collector frees: the live objects no
// root reaches, and the links they hold on objects a root does reach.
type Sweep struct {
	// Reached counts the live objects reachable from the roots.
	Reached int

	// Garbage lists every other live object, in address order.
	Garbage []mem.Ref

	// Links lists each link from a garbage object to a reached one. The
	// collector subtracts its weight from the target's count before it
	// frees the garbage, so ordinary reclamation stays exact afterwards.
	Links []Link
}

// Link is one pointer edge into a reached object and the count weight it
// carries.
type Link struct {
	To     mem.Ref
	Weight int64
}

// Garbage runs the graph and reachability passes only — no limbo, cycle,
// mismatch or type pass — and returns the collector's sweep. Budget-parked
// zombies are garbage here like any other unreached object, so a caller
// that must not free them drains the zombie stack first.
func Garbage(cfg Config) Sweep {
	g := materialize(cfg)
	defer spare.Put(g)
	g.reach(cfg.Roots)
	var sw Sweep
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.class == classReachable {
			sw.Reached++
			continue
		}
		sw.Garbage = append(sw.Garbage, mem.Ref(n.ref))
		for _, e := range g.out(int32(i)) {
			if t := &g.nodes[e.to]; t.class == classReachable {
				sw.Links = append(sw.Links, Link{To: mem.Ref(t.ref), Weight: e.w})
			}
		}
	}
	return sw
}

// spare holds graphs whose passes are done and that no snapshot keeps (an
// Audit's or a Garbage's), so their tables are reused: a backup collector
// run every few milliseconds then does not churn the Go heap.
var spare sync.Pool

// materialize walks the heap and builds the node table and edge lists.
func materialize(cfg Config) *graph {
	decode := cfg.Decode
	if decode == nil {
		decode = func(u uint64) (mem.Ref, int64) {
			if u == 0 {
				return 0, 0
			}
			return mem.Ref(u), 1
		}
	}
	// Size the tables from the heap's counters; a heap that grows under
	// the walk grows them too.
	hs := cfg.Heap.Stats()
	g, _ := spare.Get().(*graph)
	if g == nil {
		g = &graph{}
	}
	*g = graph{
		heap:  cfg.Heap,
		nodes: g.nodes[:0],
		outs:  g.outs[:0],
		index: g.index[:0],
	}
	if n := int(hs.LiveObjects); cap(g.nodes) < n {
		g.nodes = make([]node, 0, n)
	}
	if n := int(hs.HighWater/mem.LineWords) + 1; cap(g.index) < n {
		g.index = make([]int32, n)
	} else {
		g.index = g.index[:n]
		clear(g.index)
	}
	cfg.Heap.WalkBlocks(func(b mem.Block) bool {
		if b.Freed {
			g.freedSlots++
			return true
		}
		k := int(b.Ref / mem.LineWords)
		if k >= len(g.index) {
			g.index = append(g.index, make([]int32, k+1-len(g.index))...)
		}
		g.index[k] = int32(len(g.nodes)) + 1
		g.nodes = append(g.nodes, node{
			ref:   uint32(b.Ref),
			typ:   b.Type,
			gen:   b.Gen,
			words: int32(b.Size),
			rc:    cfg.Read(cfg.Heap.RCAddr(b.Ref)),
		})
		return true
	})

	for i := range g.nodes {
		n := &g.nodes[i]
		g.liveBytes += n.bytes()
		n.first = int32(len(g.outs))
		n.end = n.first
		d, err := cfg.Heap.Type(n.typ)
		if err != nil {
			continue
		}
		for _, f := range d.PtrFields {
			v := cfg.Read(cfg.Heap.FieldAddr(mem.Ref(n.ref), f))
			if v == 0 {
				continue
			}
			child, w := decode(v)
			if child == 0 {
				continue
			}
			j := g.lookup(uint64(child))
			if j < 0 {
				g.dangling++
				continue
			}
			g.outs = append(g.outs, edge{to: j, w: w})
			g.nodes[j].inw += w
			g.edges++
		}
		n.end = int32(len(g.outs))
	}
	return g
}

// reach marks the roots and everything they reach classReachable and the
// rest classUnreachable.
func (g *graph) reach(roots map[uint32]Root) {
	var stack []int32
	for ref := range roots {
		if i := g.lookup(uint64(ref)); i >= 0 {
			g.nodes[i].root = true
		}
	}
	for i := range g.nodes {
		if g.nodes[i].root {
			g.nodes[i].class = classReachable
			stack = append(stack, int32(i))
		} else {
			g.nodes[i].class = classUnreachable
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out(i) {
			if g.nodes[e.to].class != classReachable {
				g.nodes[e.to].class = classReachable
				stack = append(stack, e.to)
			}
		}
	}
}

// classify partitions the nodes: reachability from the roots, then limbo
// husks (live blocks with a zero or poisoned stored count — retired,
// awaiting a drain) and everything only husks still pin, then the rest of
// the unreachable set, which is true garbage.
func (g *graph) classify(roots map[uint32]Root) {
	g.reach(roots)

	// Limbo: unreachable husks (rc 0 or poisoned) and, transitively,
	// unreachable objects they pin — budget-deferred zombies are parked
	// with fields intact, so a husk's subgraph is en route to the
	// allocator, not leaked.
	var stack []int32
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.class == classUnreachable && (n.rc == 0 || n.rc >= mem.Poison) {
			n.class = classLimbo
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out(i) {
			if g.nodes[e.to].class == classUnreachable {
				g.nodes[e.to].class = classLimbo
				stack = append(stack, e.to)
			}
		}
	}
}

// mismatches compares each object's stored count against its weighted
// in-edge sum (each link contributes its decoded weight — 1 under figure2,
// the stash under split) plus root registrations. It returns the exact
// count and the list, capped at max (max < 0: uncapped).
//
// A poisoned stored count is a mismatch only if the block is still the one
// the walk saw: free sets the freed bit before it poisons, and a recycle
// bumps the generation before the slot is live again, so a re-read header
// that is freed or of a later generation means the block was freed between
// the walk's header and count reads — a walk race, not a count bug. A block
// that is still live and of the same generation holds poison in a live
// count cell, which is a bug whether or not mutators run.
func (g *graph) mismatches(roots map[uint32]Root, max int) (int64, []Mismatch) {
	var count int64
	var list []Mismatch
	for i := range g.nodes {
		n := &g.nodes[i]
		expected := n.inw
		if n.root {
			expected += roots[n.ref].Count
		}
		if int64(n.rc) == expected {
			continue
		}
		if n.rc >= mem.Poison {
			r := mem.Ref(n.ref)
			if g.heap.IsFreed(r) || g.heap.Generation(r) != n.gen {
				continue
			}
		}
		count++
		if max < 0 || len(list) < max {
			list = append(list, Mismatch{
				Ref:      n.ref,
				Type:     g.typeName(n.typ),
				Stored:   n.rc,
				Expected: expected,
				Class:    className(n.class),
			})
		}
	}
	return count, list
}

// attributeTypes builds the per-type retained-size table, largest first.
func attributeTypes(s *Snapshot, g *graph) {
	byType := map[mem.TypeID]*TypeStat{}
	var order []mem.TypeID
	for i := range g.nodes {
		n := &g.nodes[i]
		t := byType[n.typ]
		if t == nil {
			t = &TypeStat{Name: g.typeName(n.typ)}
			byType[n.typ] = t
			order = append(order, n.typ)
		}
		b := n.bytes()
		t.Objects++
		t.Bytes += b
		switch n.class {
		case classReachable:
			t.ReachableObjects++
			t.ReachableBytes += b
		case classUnreachable:
			t.UnreachableObjects++
			t.UnreachableBytes += b
		default:
			t.LimboObjects++
			t.LimboBytes += b
		}
	}
	for _, id := range order {
		s.Types = append(s.Types, *byType[id])
	}
	sortTypes(s.Types)
}

// typeName resolves a TypeID for reports; unknown ids (the descriptor table
// moved under the walk) are named by number.
func (g *graph) typeName(id mem.TypeID) string {
	if d, err := g.heap.Type(id); err == nil && d.Name != "" {
		return d.Name
	}
	return "type#" + itoa(int64(id))
}
