package lfrc

import (
	"io"

	"lfrc/internal/census"
	"lfrc/internal/mem"
	"lfrc/internal/reclaim"
)

// CensusSnapshot is one whole-heap object-graph census: reachability from
// the declared roots, unreachable-but-counted cycles (the garbage LFRC can
// never free, PAPER.md §7), stored-RC vs. in-edge mismatches, and per-type
// retained-size attribution. Counts are in the system's RC strategy's
// units: under figure2 a quiescent count is the object's in-degree (plus
// root registrations); under split, the default, it is the sum of the
// weights its links carry, so a count of 65536 can be one link. See
// System.Census.
type CensusSnapshot = census.Snapshot

// CensusDelta is the difference between two censuses: per-type growth and
// newly-appeared cycles. See CensusDiff.
type CensusDelta = census.Delta

// CensusCycle is one unreachable-but-counted strongly connected component
// reported by a census.
type CensusCycle = census.Cycle

// CensusRoot is one declared reachability root in a census.
type CensusRoot = census.Root

// WithCensusRoots registers an extra root source for the heap census: fn is
// called at snapshot time and returns additional object refs to treat as
// reachability roots, beyond the collection anchors every open structure
// registers automatically. Use it when application code holds counted
// references in Go-side variables the census cannot see — without declaring
// them, their subgraphs would be misreported as leaks. The option may be
// given multiple times; nil refs (0) are ignored.
func WithCensusRoots(fn func() []uint32) Option {
	return optionFunc(func(c *config) {
		if fn != nil {
			c.censusRoots = append(c.censusRoots, fn)
		}
	})
}

// Census takes a whole-heap object-graph snapshot: it walks every allocated
// block, reads each pointer field and reference count with side-effect-free
// atomic loads, and reports reachability from the declared roots (collection
// anchors plus WithCensusRoots), cycle leaks with retained bytes, stored-RC
// vs. actual-in-edge mismatches (each in-edge weighted by the credit its
// link carries: 1 under figure2, the link's weight stash under split), and
// per-type attribution.
//
// The census is strictly read-only — it frees nothing, retains nothing, and
// never helps an in-flight engine operation — so it is safe to take while
// mutators run; such a snapshot is race-clean but approximate. Quiescent
// snapshots are exact. Zombies parked by an incremental-destroy budget
// (WithIncrementalDestroy) are classified "limbo", not leaked; drain with
// DrainZombies first when a final verdict is wanted. Collect drains them
// itself before it marks, because its sweep would free a parked zombie the
// drain still holds.
//
// The most recent snapshot is also what the lfrc_census_* metrics report.
func (s *System) Census() *CensusSnapshot {
	roots := s.collector.Roots()
	for _, fn := range s.censusRoots {
		for _, ref := range fn() {
			if ref == 0 || !s.heap.InArena(mem.Ref(ref)) {
				continue
			}
			r := roots[ref]
			if r.Ref == 0 {
				r = census.Root{Ref: ref, Name: "extra"}
			}
			r.Count++
			roots[ref] = r
		}
	}
	snap := census.Take(census.Config{
		Heap:    s.heap,
		Read:    s.rc.SnapshotRead,
		Decode:  s.rc.DecodeLink,
		Roots:   roots,
		Backend: reclaim.Name,
	})
	s.lastCensus.Store(snap)
	return snap
}

// CensusDiff returns to - from: per-type growth and new cycles between two
// snapshots taken on this or any system.
func CensusDiff(from, to *CensusSnapshot) CensusDelta { return census.Diff(from, to) }

// WriteCensusJSON takes a census and writes it as schema-versioned JSON (the
// /debug/lfrc/census.json payload).
func (s *System) WriteCensusJSON(w io.Writer) error { return s.Census().WriteJSON(w) }

// WriteCensusProfile takes a census and writes it in pprof's gzipped
// heap-profile shape (the /debug/lfrc/census.pb.gz payload): samples are
// (objects, bytes) by type under reachable / unreachable / limbo / cycle-leak
// class frames, so
//
//	go tool pprof -top census.pb.gz
//
// ranks leak sources by retained bytes.
func (s *System) WriteCensusProfile(w io.Writer) error { return s.Census().WriteProfile(w) }

// WriteCensusDOT takes a census and renders the object graph as Graphviz DOT
// for small heaps (maxNodes cap, 0 = 256; larger heaps return an error
// rather than a hairball). Nodes are colored by reachability class.
func (s *System) WriteCensusDOT(w io.Writer, maxNodes int) error {
	return s.Census().WriteDOT(w, maxNodes)
}
