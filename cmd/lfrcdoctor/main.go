// Command lfrcdoctor is the offline diagnostic-bundle analyzer: point it at a
// tar.gz captured by System.WriteBundle (an incident auto-capture, the
// /debug/lfrc/bundle.tar.gz endpoint, SIGQUIT in the CLIs, or lfrcbench's
// chaos-mode FAIL capture) and it re-runs the health watchdog's rule engine
// over the bundle's timeline, cross-checks the census, merges what the live
// watchdog had already recorded, and prints a ranked verdict.
//
// It never touches a live system: everything it knows comes from the bundle,
// which is the point — a capsule captured in production is diagnosable on any
// machine, after the process is gone.
//
//	lfrcdoctor bundle.tar.gz          human verdict
//	lfrcdoctor -json bundle.tar.gz    machine-readable verdict for CI
//
// Exit status: 0 healthy (no critical findings), 1 critical findings, 2 the
// bundle could not be loaded.
package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"lfrc"
	"lfrc/internal/census"
	"lfrc/internal/timeline"
	"lfrc/internal/watchdog"
)

// bundle is a loaded diagnostic bundle. Artifacts the bundle lacks stay zero;
// analysis degrades gracefully (a bundle without a timeline still gets its
// census cross-checked).
type bundle struct {
	Manifest   lfrc.BundleManifest
	Timeline   timeline.Doc
	Incidents  watchdog.Doc
	Census     census.Snapshot
	HaveCensus bool

	PostmortemCount int
}

// load reads and parses a bundle tar.gz.
func load(path string) (*bundle, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: not a gzip archive: %w", path, err)
	}
	arts := map[string][]byte{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: tar: %w", path, err)
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", path, hdr.Name, err)
		}
		arts[hdr.Name] = b
	}

	b := &bundle{}
	mb, ok := arts["manifest.json"]
	if !ok {
		return nil, fmt.Errorf("%s: no manifest.json — not a diagnostic bundle", path)
	}
	if err := json.Unmarshal(mb, &b.Manifest); err != nil {
		return nil, fmt.Errorf("%s: manifest.json: %w", path, err)
	}
	if raw, ok := arts["timeline.json"]; ok {
		if err := json.Unmarshal(raw, &b.Timeline); err != nil {
			return nil, fmt.Errorf("%s: timeline.json: %w", path, err)
		}
	}
	if raw, ok := arts["incidents.json"]; ok {
		if err := json.Unmarshal(raw, &b.Incidents); err != nil {
			return nil, fmt.Errorf("%s: incidents.json: %w", path, err)
		}
	}
	if raw, ok := arts["census.json"]; ok {
		if err := json.Unmarshal(raw, &b.Census); err != nil {
			return nil, fmt.Errorf("%s: census.json: %w", path, err)
		}
		b.HaveCensus = true
	}
	if raw, ok := arts["postmortems.json"]; ok {
		var pm struct {
			Postmortems []json.RawMessage `json:"postmortems"`
		}
		if err := json.Unmarshal(raw, &pm); err != nil {
			return nil, fmt.Errorf("%s: postmortems.json: %w", path, err)
		}
		b.PostmortemCount = len(pm.Postmortems)
	}
	return b, nil
}

// finding is one merged verdict line: a rule that fired in the offline replay
// of the bundle's timeline, in the live watchdog's own records, or both.
type finding struct {
	Rule     string   `json:"rule"`
	Severity string   `json:"severity"`
	Level    int      `json:"level"`
	Message  string   `json:"message"`
	Count    int64    `json:"count"`
	FromSeq  uint64   `json:"from_seq"`
	ToSeq    uint64   `json:"to_seq"`
	FirstTS  int64    `json:"first_ts"`
	LastTS   int64    `json:"last_ts"`
	Sources  []string `json:"sources"`
}

// report is the full verdict.
type report struct {
	Bundle   string              `json:"bundle"`
	Manifest lfrc.BundleManifest `json:"manifest"`
	Healthy  bool                `json:"healthy"`
	Findings []finding           `json:"findings"`
	Context  []string            `json:"context"`
}

// replay runs the watchdog's default rules over the bundle's samples plus one
// final census/postmortem cross-check tick, exactly as the live engine would
// have seen them. An hour-long cooldown folds sustained conditions into one
// incident per rule, which is the shape a verdict wants.
func replay(b *bundle) []watchdog.Incident {
	eng := watchdog.New(watchdog.Options{Cooldown: time.Hour})
	var last timeline.Sample
	for _, sm := range b.Timeline.Samples {
		in := watchdog.Input{Sample: sm}
		eng.Observe(&in)
		last = sm
	}
	if len(b.Timeline.Samples) == 0 {
		// No timeline: feed a zero baseline so delta rules have a prev.
		eng.Observe(&watchdog.Input{})
	}
	final := watchdog.Input{
		Sample:      timeline.Sample{Seq: last.Seq + 1, TS: last.TS},
		Postmortems: uint64(b.PostmortemCount),
	}
	if b.HaveCensus {
		final.Probed = true
		final.CensusMismatches = b.Census.RCMismatchCount
		final.CensusCycles = b.Census.CycleCount
		final.CensusCycleBytes = b.Census.CycleBytes
		final.CensusUnreachable = b.Census.Unreachable.Objects
	}
	eng.Observe(&final)
	return eng.Incidents()
}

// analyze merges the offline replay with the bundle's live incident records
// into one ranked finding list.
func analyze(path string, b *bundle) report {
	merged := map[string]*finding{}
	order := []string{}
	absorb := func(inc watchdog.Incident, source string) {
		f := merged[inc.Rule]
		if f == nil {
			f = &finding{
				Rule:     inc.Rule,
				Severity: inc.Severity,
				Level:    int(inc.Level),
				Message:  inc.Message,
				Count:    inc.Count,
				FromSeq:  inc.FromSeq,
				ToSeq:    inc.ToSeq,
				FirstTS:  inc.FirstTS,
				LastTS:   inc.LastTS,
			}
			merged[inc.Rule] = f
			order = append(order, inc.Rule)
		} else {
			// Keep the wider evidence window and the higher firing count.
			if inc.Count > f.Count {
				f.Count, f.Message = inc.Count, inc.Message
			}
			if inc.FromSeq < f.FromSeq {
				f.FromSeq, f.FirstTS = inc.FromSeq, inc.FirstTS
			}
			if inc.ToSeq > f.ToSeq {
				f.ToSeq, f.LastTS = inc.ToSeq, inc.LastTS
			}
		}
		for _, s := range f.Sources {
			if s == source {
				return
			}
		}
		f.Sources = append(f.Sources, source)
	}
	for _, inc := range replay(b) {
		absorb(inc, "replay")
	}
	for _, inc := range b.Incidents.Incidents {
		absorb(inc, "live")
	}

	findings := make([]finding, 0, len(order))
	for _, rule := range order {
		findings = append(findings, *merged[rule])
	}
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].Level != findings[j].Level {
			return findings[i].Level > findings[j].Level
		}
		return findings[i].Count > findings[j].Count
	})

	rep := report{
		Bundle:   path,
		Manifest: b.Manifest,
		Healthy:  true,
		Findings: findings,
		Context:  contextLines(b),
	}
	for _, f := range findings {
		if f.Level >= int(watchdog.SevCritical) {
			rep.Healthy = false
		}
	}
	return rep
}

// contextLines summarizes the bundle's surroundings: the telemetry span, the
// census totals, and the hottest contention cell at the end of the window.
func contextLines(b *bundle) []string {
	var out []string
	if n := len(b.Timeline.Samples); n > 0 {
		first, last := b.Timeline.Samples[0], b.Timeline.Samples[n-1]
		out = append(out, fmt.Sprintf("timeline: %d samples over %.1fs at %v cadence",
			n, float64(last.TS-first.TS)/1e9, time.Duration(b.Timeline.IntervalNS)))
		if hot := last.Hot[0]; hot.Addr != 0 {
			total := int64(0)
			for _, h := range last.Hot {
				total += h.Failures
			}
			share := ""
			if total > 0 {
				share = fmt.Sprintf(" (%d%% of top-K failures)", hot.Failures*100/total)
			}
			out = append(out, fmt.Sprintf("top contention cell %s: hot %d, %d attributed failures%s",
				hot.Role, hot.Hot, hot.Failures, share))
		}
	} else {
		out = append(out, "timeline: no samples (bundle captured without WithTimeline?)")
	}
	if b.HaveCensus {
		out = append(out, fmt.Sprintf(
			"census (%s backend): %d live objects — %d reachable, %d limbo, %d unreachable; %d cycle(s), %d rc mismatch(es)",
			b.Census.Backend, b.Census.LiveObjects, b.Census.Reachable.Objects,
			b.Census.Limbo.Objects, b.Census.Unreachable.Objects,
			b.Census.CycleCount, b.Census.RCMismatchCount))
	}
	if b.PostmortemCount > 0 {
		out = append(out, fmt.Sprintf("%d violation postmortem(s) on board", b.PostmortemCount))
	}
	return out
}

// glyphs per severity level, matching lfrctop's incidents panel.
func glyph(level int) string {
	switch watchdog.Severity(level) {
	case watchdog.SevCritical:
		return "✖"
	case watchdog.SevWarn:
		return "▲"
	default:
		return "•"
	}
}

// printHuman renders the verdict for a terminal.
func printHuman(w io.Writer, rep report) {
	m := rep.Manifest
	fmt.Fprintf(w, "lfrcdoctor: %s\n", rep.Bundle)
	fmt.Fprintf(w, "  engine %s · reclaimer %s · %s %s/%s · GOMAXPROCS %d\n",
		m.Engine, m.Reclaimer, m.Host.GoVersion, m.Host.GOOS, m.Host.GOARCH, m.Host.GOMAXPROCS)
	if m.FaultPlan != "" {
		fmt.Fprintf(w, "  fault plan %q seed %d", m.FaultPlan, m.FaultSeed)
		if m.FaultSchedule != "" {
			fmt.Fprintf(w, "; schedule tail: %s", m.FaultSchedule)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	if len(rep.Findings) == 0 {
		fmt.Fprintf(w, "VERDICT: HEALTHY — no rule fired in replay and the live watchdog recorded nothing\n")
	} else {
		crit, warn := 0, 0
		for _, f := range rep.Findings {
			switch {
			case f.Level >= int(watchdog.SevCritical):
				crit++
			case f.Level == int(watchdog.SevWarn):
				warn++
			}
		}
		verdict := "DEGRADED"
		if crit > 0 {
			verdict = "UNHEALTHY"
		}
		fmt.Fprintf(w, "VERDICT: %s — %d critical, %d warning\n\n", verdict, crit, warn)
		for _, f := range rep.Findings {
			src := ""
			for i, s := range f.Sources {
				if i > 0 {
					src += "+"
				}
				src += s
			}
			fmt.Fprintf(w, "  %s %-8s %-15s [%s] %s (samples %d–%d, ×%d)\n",
				glyph(f.Level), f.Severity, f.Rule, src, f.Message, f.FromSeq, f.ToSeq, f.Count)
		}
	}
	if len(rep.Context) > 0 {
		fmt.Fprintf(w, "\ncontext:\n")
		for _, line := range rep.Context {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the verdict as JSON (for CI)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lfrcdoctor [-json] bundle.tar.gz\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	b, err := load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfrcdoctor: %v\n", err)
		os.Exit(2)
	}
	rep := analyze(path, b)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		printHuman(os.Stdout, rep)
	}
	if !rep.Healthy {
		os.Exit(1)
	}
}
