package census

import (
	"fmt"
	"sort"
)

// findCycles runs Tarjan's SCC algorithm over the unreachable (non-limbo)
// subgraph and reports every component that actually cycles — size > 1, or a
// single node with a self-edge. These are exactly the leaks reference
// counting can never reclaim (PAPER.md §7): every member's count is held up
// by a fellow member.
func findCycles(cfg Config, s *Snapshot, g *graph) {
	n := len(g.nodes)
	leaked := func(i int32) bool { return g.nodes[i].class == classUnreachable }

	index := make([]int32, n) // discovery order, 0 = unvisited
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	var sccStack []int32
	var next int32 = 1

	var sccs [][]int32

	// Iterative Tarjan: frame.ei is the edge cursor into g.out(v).
	type frame struct {
		v  int32
		ei int
	}
	var callStack []frame

	strongconnect := func(v0 int32) {
		callStack = append(callStack[:0], frame{v: v0})
		index[v0] = next
		lowlink[v0] = next
		next++
		sccStack = append(sccStack, v0)
		onStack[v0] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			advanced := false
			out := g.out(v)
			for f.ei < len(out) {
				w := out[f.ei].to
				f.ei++
				if !leaked(w) {
					continue
				}
				if index[w] == 0 {
					// Recurse.
					index[w] = next
					lowlink[w] = next
					next++
					sccStack = append(sccStack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is done: pop, fold lowlink into the parent, and emit the
			// component if v is its root.
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var comp []int32
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}

	for i := int32(0); i < int32(n); i++ {
		if leaked(i) && index[i] == 0 {
			strongconnect(i)
		}
	}

	// Keep only genuine cycles.
	selfLoop := func(v int32) bool {
		for _, e := range g.out(v) {
			if e.to == v {
				return true
			}
		}
		return false
	}
	var cycles []Cycle
	stamp := make([]int32, n)
	for ci, comp := range sccs {
		if len(comp) == 1 && !selfLoop(comp[0]) {
			continue
		}
		sort.Slice(comp, func(a, b int) bool { return g.nodes[comp[a]].ref < g.nodes[comp[b]].ref })

		c := Cycle{Size: int64(len(comp))}
		h := uint64(14695981039346656037) // FNV-1a over the sorted member refs
		for _, v := range comp {
			nd := &g.nodes[v]
			c.Bytes += nd.bytes()
			for sh := 0; sh < 32; sh += 8 {
				h = (h ^ uint64(nd.ref>>sh&0xFF)) * 1099511628211
			}
			if len(c.Objects) < cfg.MaxCycleObjects {
				c.Objects = append(c.Objects, Object{Ref: nd.ref, Type: g.typeName(nd.typ), RC: nd.rc})
			} else {
				c.Truncated = true
			}
			typ := g.typeName(nd.typ)
			if s.cycleByType == nil {
				s.cycleByType = map[string]Bucket{}
			}
			b, seen := s.cycleByType[typ]
			if !seen {
				s.cycleTypeOrder = append(s.cycleTypeOrder, typ)
			}
			b.Objects++
			b.Bytes += nd.bytes()
			s.cycleByType[typ] = b
		}
		c.Key = fmt.Sprintf("%016x", h)

		// Retained set: every unreachable object the cycle can reach —
		// what breaking the cycle would hand back to the allocator.
		mark := int32(ci + 1)
		work := append([]int32(nil), comp...)
		for _, v := range work {
			stamp[v] = mark
		}
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			c.RetainedObjects++
			c.RetainedBytes += g.nodes[v].bytes()
			for _, e := range g.out(v) {
				if leaked(e.to) && stamp[e.to] != mark {
					stamp[e.to] = mark
					work = append(work, e.to)
				}
			}
		}

		s.CycleCount++
		s.CycleObjects += c.Size
		s.CycleBytes += c.Bytes
		cycles = append(cycles, c)
	}

	sort.Slice(cycles, func(a, b int) bool {
		if cycles[a].RetainedBytes != cycles[b].RetainedBytes {
			return cycles[a].RetainedBytes > cycles[b].RetainedBytes
		}
		return cycles[a].Objects[0].Ref < cycles[b].Objects[0].Ref
	})
	if len(cycles) > cfg.MaxCycles {
		cycles = cycles[:cfg.MaxCycles]
	}
	s.Cycles = cycles
}

// sortRoots orders a root list by ref.
func sortRoots(rs []Root) {
	sort.Slice(rs, func(a, b int) bool { return rs[a].Ref < rs[b].Ref })
}

// sortTypes orders the per-type table by total bytes, largest first, name as
// the tiebreak.
func sortTypes(ts []TypeStat) {
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].Bytes != ts[b].Bytes {
			return ts[a].Bytes > ts[b].Bytes
		}
		return ts[a].Name < ts[b].Name
	})
}

// itoa is strconv.Itoa for int64 without the import churn.
func itoa(v int64) string { return fmt.Sprintf("%d", v) }
