package workload

import (
	"fmt"
	"sort"
	"time"

	"lfrc"
)

// o4Mode is one timeline configuration of experiment O4.
type o4Mode struct {
	name string
	// interval is the sampler cadence; < 0 means the timeline is off
	// entirely (the baseline).
	interval time.Duration
}

var o4Modes = []o4Mode{
	{"off", -1},
	{"1s", time.Second},
	{"100ms", 100 * time.Millisecond}, // the default production cadence
	{"10ms", 10 * time.Millisecond},
}

// o4Rounds is how many times each mode is measured. Rounds are interleaved
// round-robin (off, 1s, 100ms, 10ms, off, ...) so slow host-load drift hits
// every mode equally, and the table reports per-mode medians: on a noisy
// shared host single runs swing by several percent, which would swamp a
// sub-1% effect.
const o4Rounds = 5

// RunO4 measures the telemetry timeline's overhead on the balanced deque
// throughput workload (the same workload O2 judges the lifecycle ledger on):
// timeline off, and sampling at 1s, the default 100ms, and an aggressive
// 10ms. The claim under test is that continuous telemetry is free enough to
// leave on: capture is read-only against the striped counters and allocates
// nothing, so even the 10ms cadence spends only ~100 sub-microsecond
// snapshots per second of run.
func RunO4(kind EngineKind, dur time.Duration) *Table {
	t := &Table{
		ID:     "O4",
		Title:  "timeline sampler overhead: balanced deque throughput by capture cadence",
		Claim:  "continuous telemetry is affordable at production cadence: the default 100ms interval stays within 1% of timeline-off",
		Header: []string{"engine", "timeline", "ops/sec", "vs off", "samples", "drops"},
	}
	const (
		workers = 4
		prefill = 64
	)

	rates := make([][]float64, len(o4Modes))
	stats := make([]lfrc.TimelineStats, len(o4Modes))
	for round := 0; round < o4Rounds; round++ {
		for i, m := range o4Modes {
			opts := []lfrc.Option{}
			switch kind {
			case EngineMCAS:
				opts = append(opts, lfrc.WithEngine(lfrc.EngineMCAS))
			default:
				opts = append(opts, lfrc.WithEngine(lfrc.EngineLocking))
			}
			if m.interval >= 0 {
				opts = append(opts, lfrc.WithTimeline(lfrc.TimelineOptions{Interval: m.interval}))
			}
			sys, err := lfrc.New(opts...)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("mode=%s FAILED: %v", m.name, err))
				continue
			}
			d, err := sys.NewDeque()
			if err != nil {
				sys.Close()
				t.Notes = append(t.Notes, fmt.Sprintf("mode=%s FAILED: %v", m.name, err))
				continue
			}
			res := RunThroughput(d, workers, dur, Balanced, prefill)
			d.Close()
			rates[i] = append(rates[i], res.OpsPerSec())
			stats[i] = sys.TimelineStats()
			if round == o4Rounds-1 && i == len(o4Modes)-1 {
				// Publish the final system for -stats-json/-metrics; every
				// other one is done with.
				SetCurrentSystem(sys)
			} else {
				sys.Close()
			}
		}
	}

	var baseline float64
	for i, m := range o4Modes {
		if len(rates[i]) == 0 {
			continue
		}
		rate := o4Median(rates[i])
		rel := "1.00x"
		if m.interval < 0 {
			baseline = rate
		} else if baseline > 0 {
			rel = fmt.Sprintf("%.2fx", rate/baseline)
		}
		t.AddRow(kind.String(), m.name, rate, rel, int64(stats[i].Captures), int64(stats[i].Dropped))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workers=%d prefill=%d mix=balanced; 'timeline off' builds the system without WithTimeline", workers, prefill),
		fmt.Sprintf("ops/sec is the median of %d interleaved rounds per mode (single runs swing several %% on a shared host)", o4Rounds),
		"samples/drops are from the last round; drops counts wraparound evictions (expected 0 at these durations)",
	)
	return t
}

func o4Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
