package lfrc

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"lfrc/internal/obs"
	"lfrc/internal/reclaim"
)

// BundleSchemaVersion is the diagnostic-bundle manifest schema version; bump
// on any incompatible change to the manifest or the artifact roster.
const BundleSchemaVersion = 1

// BundleHost pins the environment a bundle was captured in.
type BundleHost struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// BundleManifest is the bundle's manifest.json: enough context to interpret
// every other artifact offline — which engine the system ran (Reclaimer
// always reads "lfrc"), the fault plan and seed (a failing chaos run is replayable from
// these), and the artifact roster.
type BundleManifest struct {
	SchemaVersion int        `json:"schema_version"`
	CreatedNS     int64      `json:"created_ns"`
	Host          BundleHost `json:"host"`

	Engine    string `json:"engine"`
	Reclaimer string `json:"reclaimer"`

	// FaultSeed/FaultPlan reproduce the injector; FaultSchedule is the tail
	// of the firing log ("point@attempt ..."), empty when nothing fired.
	FaultSeed     uint64 `json:"fault_seed"`
	FaultPlan     string `json:"fault_plan"`
	FaultSchedule string `json:"fault_schedule"`

	Artifacts []string `json:"artifacts"`
}

// WriteBundle writes the system's diagnostic bundle: one tar.gz capturing the
// whole observability stack at this instant — manifest.json, stats.json,
// timeline.json, incidents.json, census.json + census.pb.gz,
// contention.pb.gz (when contention is observed), postmortems.json, and metrics.txt
// — every artifact the bytes the corresponding live endpoint would have
// served. The bundle is the black box cmd/lfrcdoctor diagnoses offline; it is
// also served on /debug/lfrc/bundle.tar.gz and auto-captured on incidents
// when WatchdogOptions.BundleDir is set.
//
// Capture is safe while mutators run (every source is a race-clean snapshot),
// but like any cross-counter view it is exact only at quiescence.
func (s *System) WriteBundle(w io.Writer) error {
	type artifact struct {
		name string
		data []byte
	}
	var arts []artifact
	add := func(name string, fill func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := fill(&buf); err != nil {
			return fmt.Errorf("lfrc: bundle artifact %s: %w", name, err)
		}
		arts = append(arts, artifact{name, buf.Bytes()})
		return nil
	}
	addJSON := func(name string, v any) error {
		return add(name, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		})
	}

	// One census feeds both renderings so they describe the same heap.
	snap := s.Census()
	pms := s.Postmortems()
	if pms == nil {
		pms = []obs.Postmortem{}
	}

	if err := addJSON("stats.json", s.Stats()); err != nil {
		return err
	}
	if err := add("timeline.json", s.WriteTimelineJSON); err != nil {
		return err
	}
	if err := add("incidents.json", s.WriteIncidentsJSON); err != nil {
		return err
	}
	if err := add("census.json", snap.WriteJSON); err != nil {
		return err
	}
	if err := add("census.pb.gz", snap.WriteProfile); err != nil {
		return err
	}
	if s.ct != nil {
		if err := add("contention.pb.gz", s.WriteContentionProfile); err != nil {
			return err
		}
	}
	if err := addJSON("postmortems.json", map[string]any{"postmortems": pms}); err != nil {
		return err
	}
	if err := add("metrics.txt", func(w io.Writer) error { s.WriteMetrics(w); return nil }); err != nil {
		return err
	}

	m := BundleManifest{
		SchemaVersion: BundleSchemaVersion,
		CreatedNS:     time.Now().UnixNano(),
		Host: BundleHost{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
		Engine:    s.EngineName(),
		Reclaimer: reclaim.Name,
		Artifacts: []string{"manifest.json"},
	}
	if s.fj != nil {
		m.FaultSeed = s.fj.Seed()
		m.FaultSchedule = s.fj.ScheduleString(64)
	}
	m.FaultPlan = s.faultPlan
	for _, a := range arts {
		m.Artifacts = append(m.Artifacts, a.name)
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	arts = append([]artifact{{"manifest.json", append(mb, '\n')}}, arts...)

	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	// One shared ModTime (the capture instant) keeps the archive bytes a
	// pure function of the artifact contents.
	mod := time.Unix(0, m.CreatedNS)
	for _, a := range arts {
		hdr := &tar.Header{
			Name:    a.name,
			Mode:    0o644,
			Size:    int64(len(a.data)),
			ModTime: mod,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if _, err := tw.Write(a.data); err != nil {
			return err
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}
