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
//   - stored-RC vs. actual-in-edge mismatches, the per-object form of the
//     quiescent Audit,
//   - per-type retained-size attribution.
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
// actual in-edges plus root registrations. At quiescence any mismatch is a
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

// graph is the materialized object graph a snapshot was computed from.
type graph struct {
	heap  *mem.Heap
	nodes []node
	index map[uint32]int32 // ref -> nodes index
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
	words int32
	rc    uint64
	edges []int32 // out-neighbor node indices
	in    int32   // in-edge count (self-edges included)
	inw   int64   // weighted in-edge sum (== in under figure2)
	class uint8
	root  bool
}

func (n *node) bytes() int64 { return int64(n.words) * 8 }

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

	g := materialize(cfg, s)
	s.g = g
	classify(cfg, s, g)
	findCycles(cfg, s, g)
	findMismatches(cfg, s, g)
	attributeTypes(cfg, s, g)

	s.WallNS = time.Since(start).Nanoseconds()
	return s
}

// materialize walks the heap and builds the node table and edge lists.
func materialize(cfg Config, s *Snapshot) *graph {
	decode := cfg.Decode
	if decode == nil {
		decode = func(u uint64) (mem.Ref, int64) {
			if u == 0 {
				return 0, 0
			}
			return mem.Ref(u), 1
		}
	}
	g := &graph{heap: cfg.Heap, index: make(map[uint32]int32)}
	cfg.Heap.WalkBlocks(func(b mem.Block) bool {
		if b.Freed {
			s.FreedSlots++
			return true
		}
		g.index[uint32(b.Ref)] = int32(len(g.nodes))
		g.nodes = append(g.nodes, node{
			ref:   uint32(b.Ref),
			typ:   b.Type,
			words: int32(b.Size),
			rc:    cfg.Read(cfg.Heap.RCAddr(b.Ref)),
		})
		return true
	})
	s.LiveObjects = int64(len(g.nodes))

	for i := range g.nodes {
		n := &g.nodes[i]
		s.LiveBytes += n.bytes()
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
			j, ok := int32(-1), false
			if uint64(child) <= 0xFFFF_FFFF {
				j, ok = g.index[uint32(child)]
			}
			if !ok {
				s.DanglingEdges++
				continue
			}
			n.edges = append(n.edges, j)
			g.nodes[j].in++
			g.nodes[j].inw += w
			s.Edges++
		}
	}
	return g
}

// classify partitions the nodes: BFS reachability from the roots, then limbo
// husks (live blocks with a zero or poisoned stored count — retired, awaiting
// a drain) and everything only husks still pin, then the rest of the
// unreachable set, which is true garbage.
func classify(cfg Config, s *Snapshot, g *graph) {
	for ref, r := range cfg.Roots {
		s.Roots = append(s.Roots, r)
		if i, ok := g.index[ref]; ok {
			g.nodes[i].root = true
		}
	}
	sortRoots(s.Roots)

	// Reachability from the roots.
	var stack []int32
	for i := range g.nodes {
		if g.nodes[i].root {
			g.nodes[i].class = classReachable
			stack = append(stack, int32(i))
		} else {
			g.nodes[i].class = classUnreachable
		}
	}
	visited := make([]bool, len(g.nodes))
	for _, i := range stack {
		visited[i] = true
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range g.nodes[i].edges {
			if !visited[j] {
				visited[j] = true
				g.nodes[j].class = classReachable
				stack = append(stack, j)
			}
		}
	}

	// Limbo: unreachable husks (rc 0 or poisoned) and, transitively,
	// unreachable objects they pin — budget-deferred zombies are parked
	// with fields intact, so a husk's subgraph is en route to the
	// allocator, not leaked.
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
		for _, j := range g.nodes[i].edges {
			if g.nodes[j].class == classUnreachable {
				g.nodes[j].class = classLimbo
				stack = append(stack, j)
			}
		}
	}

	for i := range g.nodes {
		n := &g.nodes[i]
		switch n.class {
		case classReachable:
			s.Reachable.Objects++
			s.Reachable.Bytes += n.bytes()
		case classUnreachable:
			s.Unreachable.Objects++
			s.Unreachable.Bytes += n.bytes()
		default:
			s.Limbo.Objects++
			s.Limbo.Bytes += n.bytes()
		}
	}
}

// findMismatches compares each object's stored count against its weighted
// in-edge sum (each link contributes its decoded weight — 1 under figure2,
// the stash under split) plus root registrations. Poisoned counts are
// skipped: the block was freed between the header read and the rc read,
// which is a walk race, not a count bug.
func findMismatches(cfg Config, s *Snapshot, g *graph) {
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.rc >= mem.Poison {
			continue
		}
		expected := n.inw
		if n.root {
			expected += cfg.Roots[n.ref].Count
		}
		if int64(n.rc) == expected {
			continue
		}
		s.RCMismatchCount++
		if len(s.RCMismatches) < cfg.MaxMismatches {
			s.RCMismatches = append(s.RCMismatches, Mismatch{
				Ref:      n.ref,
				Type:     g.typeName(n.typ),
				Stored:   n.rc,
				Expected: expected,
				Class:    className(n.class),
			})
		}
	}
}

// attributeTypes builds the per-type retained-size table, largest first.
func attributeTypes(cfg Config, s *Snapshot, g *graph) {
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
