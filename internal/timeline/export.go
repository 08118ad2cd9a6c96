package timeline

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// SchemaVersion identifies the timeline.json layout. Bump it on any breaking
// change to Doc or Sample JSON tags; the schema golden test at the repo root
// locks the key set.
const SchemaVersion = 1

// Doc is the one-call JSON export served on /debug/lfrc/timeline.json.
type Doc struct {
	// SchemaVersion is SchemaVersion at write time.
	SchemaVersion int `json:"schema_version"`

	// Enabled reports whether a sampler is installed; the remaining
	// fields are zero when it is not.
	Enabled bool `json:"enabled"`

	// IntervalNS, Slots, Captures, Retained, Dropped mirror Stats.
	IntervalNS int64  `json:"interval_ns"`
	Slots      int    `json:"slots"`
	Captures   uint64 `json:"captures"`
	Retained   int    `json:"retained"`
	Dropped    uint64 `json:"dropped"`

	// Samples is the retained series, oldest first.
	Samples []Sample `json:"samples"`
}

// Document builds the export Doc from the sampler's current state. Nil-safe:
// a nil sampler produces a valid disabled document.
func (s *Sampler) Document() Doc {
	if s == nil {
		return Doc{SchemaVersion: SchemaVersion, Samples: []Sample{}}
	}
	st := s.Stats()
	samples := s.Snapshot()
	if samples == nil {
		samples = []Sample{}
	}
	return Doc{
		SchemaVersion: SchemaVersion,
		Enabled:       true,
		IntervalNS:    st.IntervalNS,
		Slots:         st.Slots,
		Captures:      st.Captures,
		Retained:      st.Retained,
		Dropped:       st.Dropped,
		Samples:       samples,
	}
}

// WriteJSON writes the timeline document as indented JSON.
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Document())
}

// csvColumns is the column set WriteCSV emits, one row per sample. The hot
// cells are flattened to the single hottest entry; the full heatmap lives in
// the JSON export.
var csvColumns = []string{
	"seq", "ts", "dur_ns",
	"ops", "rate_ops_per_sec",
	"heap_allocs", "heap_frees", "heap_recycles",
	"heap_live_objects", "heap_live_words",
	"rc_loads", "rc_load_retries", "rc_stores", "rc_copies", "rc_cas",
	"rc_dcas", "rc_destroys", "rc_zombie_pushes",
	"alloc_global_free",
	"zombies", "reclaim_retired", "reclaim_freed", "reclaim_pending",
	"deg_retries", "deg_recoveries", "deg_exhaustions", "deg_zombies_drained",
	"fault_injected", "obs_recorded",
	"lat_load_p50_ns", "lat_load_p99_ns", "retry_p99",
	"hot_addr", "hot_role", "hot_score", "hot_failures",
}

// WriteCSV writes the retained samples as CSV (header row + one row per
// sample, oldest first) for spreadsheet and gnuplot consumption. Nil-safe: a
// nil sampler writes only the header.
func (s *Sampler) WriteCSV(w io.Writer) error {
	for i, c := range csvColumns {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, c); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, sm := range s.Snapshot() {
		row := []string{
			strconv.FormatUint(sm.Seq, 10),
			strconv.FormatInt(sm.TS, 10),
			strconv.FormatInt(sm.DurNS, 10),
			strconv.FormatInt(sm.Ops(), 10),
			strconv.FormatFloat(sm.Rate(), 'f', 1, 64),
			strconv.FormatInt(sm.HeapAllocs, 10),
			strconv.FormatInt(sm.HeapFrees, 10),
			strconv.FormatInt(sm.HeapRecycles, 10),
			strconv.FormatInt(sm.HeapLiveObjects, 10),
			strconv.FormatInt(sm.HeapLiveWords, 10),
			strconv.FormatInt(sm.RCLoads, 10),
			strconv.FormatInt(sm.RCLoadRetries, 10),
			strconv.FormatInt(sm.RCStores, 10),
			strconv.FormatInt(sm.RCCopies, 10),
			strconv.FormatInt(sm.RCCAS, 10),
			strconv.FormatInt(sm.RCDCAS, 10),
			strconv.FormatInt(sm.RCDestroys, 10),
			strconv.FormatInt(sm.RCZombiePushes, 10),
			strconv.FormatInt(sm.AllocGlobalFree, 10),
			strconv.FormatInt(sm.Zombies, 10),
			strconv.FormatInt(sm.ReclaimRetired, 10),
			strconv.FormatInt(sm.ReclaimFreed, 10),
			strconv.FormatInt(sm.ReclaimPending, 10),
			strconv.FormatInt(sm.DegRetries, 10),
			strconv.FormatInt(sm.DegRecoveries, 10),
			strconv.FormatInt(sm.DegExhaustions, 10),
			strconv.FormatInt(sm.DegZombiesDrained, 10),
			strconv.FormatUint(sm.FaultInjected, 10),
			strconv.FormatUint(sm.ObsRecorded, 10),
			strconv.FormatInt(sm.LatLoadP50, 10),
			strconv.FormatInt(sm.LatLoadP99, 10),
			strconv.FormatInt(sm.RetryP99, 10),
			fmt.Sprintf("%#x", sm.Hot[0].Addr),
			sm.Hot[0].Role,
			strconv.FormatInt(sm.Hot[0].Hot, 10),
			strconv.FormatInt(sm.Hot[0].Failures, 10),
		}
		for i, v := range row {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, v); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
