package census

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"lfrc/internal/mem"
	"lfrc/internal/pprofenc"
)

// WriteJSON writes the snapshot as indented, schema-versioned JSON (the
// /debug/lfrc/census.json payload; the key set is golden-tested).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteProfile writes the census in pprof's gzipped profile.proto format,
// shaped like a heap profile: sample values are (objects, bytes) and every
// sample sits under a two-frame stack — the reachability class calls the type
// — so
//
//	go tool pprof -top census.pb.gz
//
// ranks types by retained bytes and the cumulative view rolls them up under
// reachable / unreachable / limbo. Cycle members additionally appear under a
// third "cycle leak" class so leak sources surface even when the unreachable
// set is small.
func (s *Snapshot) WriteProfile(w io.Writer) error {
	p := pprofenc.NewBuilder()

	objectsType := p.ValueType("objects", "count")
	bytesType := p.ValueType("bytes", "bytes")
	p.Msg.BytesField(1, objectsType)
	p.Msg.BytesField(1, bytesType)

	emit := func(class, typ string, objects, bytes int64) {
		if objects == 0 && bytes == 0 {
			return
		}
		typLoc := p.Location(typ)
		classLoc := p.Location("class:" + class)

		var sample pprofenc.Buf
		sample.PackedUint64(1, []uint64{typLoc, classLoc}) // leaf first
		sample.PackedInt64(2, []int64{objects, bytes})
		sample.BytesField(3, p.Label("class", class))
		sample.BytesField(3, p.Label("type", typ))
		p.Msg.BytesField(2, sample.Bytes())
	}
	for _, t := range s.Types {
		emit("reachable", t.Name, t.ReachableObjects, t.ReachableBytes)
		emit("unreachable", t.Name, t.UnreachableObjects, t.UnreachableBytes)
		emit("limbo", t.Name, t.LimboObjects, t.LimboBytes)
	}
	// Cycle members again, under their own class, aggregated by type
	// (exact member totals, recorded by findCycles before any list caps).
	for _, typ := range s.cycleTypeOrder {
		b := s.cycleByType[typ]
		emit("cycle leak", typ, b.Objects, b.Bytes)
	}

	p.FlushLocations()
	p.Msg.Int64Field(9, s.TS)
	p.Msg.BytesField(11, bytesType) // period type
	p.Msg.Int64Field(12, 1)
	p.Msg.Int64Field(13, p.Str(fmt.Sprintf(
		"lfrc heap census: backend=%s live=%d unreachable_bytes=%d cycles=%d limbo=%d",
		s.Backend, s.LiveObjects, s.Unreachable.Bytes, s.CycleCount, s.Limbo.Objects)))
	p.Msg.Int64Field(14, 1) // default_sample_type = bytes

	return p.WriteGzipped(w)
}

// ErrNoGraph reports a DOT export attempted on a snapshot that no longer
// holds its object graph (for example one decoded from JSON).
var ErrNoGraph = errors.New("census: snapshot holds no object graph")

// ErrTooLarge reports a DOT export refused because the heap exceeds the node
// cap — DOT is a small-heap debugging view, not a production export.
var ErrTooLarge = errors.New("census: heap too large for DOT export")

// WriteDOT renders the object graph in Graphviz DOT, for small heaps: nodes
// are labeled ref/type/rc and colored by class (reachable gray, unreachable
// red, limbo yellow; roots get a bold border). maxNodes caps the render
// (0 = 256); a larger heap returns ErrTooLarge rather than an unreadable
// hairball.
func (s *Snapshot) WriteDOT(w io.Writer, maxNodes int) error {
	if s.g == nil {
		return ErrNoGraph
	}
	if maxNodes <= 0 {
		maxNodes = 256
	}
	if len(s.g.nodes) > maxNodes {
		return fmt.Errorf("%w: %d live objects > cap %d", ErrTooLarge, len(s.g.nodes), maxNodes)
	}
	bw := newErrWriter(w)
	fmt.Fprintf(bw, "digraph census {\n  rankdir=LR;\n  node [shape=box, style=filled, fontsize=10];\n")
	fmt.Fprintf(bw, "  label=\"lfrc heap census backend=%s live=%d unreachable=%d limbo=%d cycles=%d\";\n",
		s.Backend, s.LiveObjects, s.Unreachable.Objects, s.Limbo.Objects, s.CycleCount)
	for i := range s.g.nodes {
		n := &s.g.nodes[i]
		color := "lightgray"
		switch n.class {
		case classUnreachable:
			color = "lightcoral"
		case classLimbo:
			color = "khaki"
		}
		extra := ""
		if n.root {
			extra = ", penwidth=3"
		}
		rc := fmt.Sprintf("%d", n.rc)
		if n.rc >= mem.Poison {
			rc = "poisoned"
		}
		fmt.Fprintf(bw, "  n%d [label=\"%#x\\n%s rc=%s\", fillcolor=%s%s];\n",
			n.ref, n.ref, s.g.typeName(n.typ), rc, color, extra)
	}
	for i := range s.g.nodes {
		n := &s.g.nodes[i]
		for _, e := range s.g.out(int32(i)) {
			fmt.Fprintf(bw, "  n%d -> n%d;\n", n.ref, s.g.nodes[e.to].ref)
		}
	}
	fmt.Fprintf(bw, "}\n")
	return bw.err
}

// errWriter folds the first write error so the DOT renderer can stay
// fmt.Fprintf-shaped.
type errWriter struct {
	w   io.Writer
	err error
}

func newErrWriter(w io.Writer) *errWriter { return &errWriter{w: w} }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
