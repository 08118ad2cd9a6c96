package workload

import (
	"fmt"
	"time"

	"lfrc"
)

// o3Mode is one load shape of experiment O3.
type o3Mode struct {
	name string
	mix  Mix
}

var o3Modes = []o3Mode{
	// Symmetric traffic exercises both hats equally.
	{"symmetric", Balanced},
	// One-sided traffic hammers the right hat only; the left hat goes quiet
	// and the right hat plus its neighbouring cells should dominate the
	// contention profile.
	{"right_only", Mix{PushRight: 1, PopRight: 1}},
}

// RunO3 runs the contention observatory over two Snark deque load shapes and
// tabulates where the DCAS failures land. The claim under test: the profile
// is not a flat histogram but tracks the algorithm's actual hot spots — under
// symmetric load the two hats split the failures, under one-sided load the
// right hat concentrates them. This is the observability payoff: you can
// read the structure's bottleneck off /debug/lfrc/contention instead of
// guessing from throughput numbers.
func RunO3(kind EngineKind, dur time.Duration) *Table {
	t := &Table{
		ID:     "O3",
		Title:  "contention observatory: where DCAS failures land by load shape",
		Claim:  "hot-cell attribution follows the load: symmetric traffic splits failures across both hats, one-sided traffic concentrates them on the used hat",
		Header: []string{"engine", "mode", "ops/sec", "dcas failures", "wasted us", "hottest cell", "top-3 roles by failures"},
	}
	const (
		workers = 4
		prefill = 64
	)

	for _, m := range o3Modes {
		// Pinned to the paper's protocol: its per-read count-word DCAS is
		// the rc hot spot the profile must show beside the hats.
		opts := []lfrc.Option{
			lfrc.WithRCStrategy(lfrc.RCFigure2),
			lfrc.WithObservability(lfrc.ObservabilityOptions{
				Contention:  true,
				SampleEvery: 64,
			}),
		}
		if kind == EngineMCAS {
			opts = append(opts, lfrc.WithEngine(lfrc.EngineMCAS))
		} else {
			opts = append(opts, lfrc.WithEngine(lfrc.EngineLocking))
		}
		sys, err := lfrc.New(opts...)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("mode=%s FAILED: %v", m.name, err))
			continue
		}
		d, err := sys.NewDeque()
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("mode=%s FAILED: %v", m.name, err))
			continue
		}
		res := RunThroughput(d, workers, dur, m.mix, prefill)
		d.Close()

		rep := sys.ContentionReport()
		var failures, wasted int64
		byRole := map[string]int64{}
		for _, c := range rep.Cells {
			failures += c.Failures
			wasted += c.WastedNS
			byRole[c.Role] += c.Failures
		}
		hottest := "-"
		if len(rep.Heatmap) > 0 {
			h := rep.Heatmap[0]
			hottest = fmt.Sprintf("%s@0x%x", h.Role, h.Addr)
		}
		t.AddRow(kind.String(), m.name, res.OpsPerSec(), failures,
			float64(wasted)/1e3, hottest, topRoles(byRole, 3))
		if rep.Dropped > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("mode=%s dropped %d contention records", m.name, rep.Dropped))
		}
		SetCurrentSystem(sys)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workers=%d prefill=%d; wasted us estimates retry time from 1-in-64 sampled latencies", workers, prefill),
		"failure counts are contended attempts only: uncontended fast-path DCAS never enters the table",
	)
	return t
}

// topRoles renders the k roles with the most failures, "role=n" descending.
func topRoles(byRole map[string]int64, k int) string {
	type rf struct {
		role string
		n    int64
	}
	var rs []rf
	for role, n := range byRole {
		if n > 0 {
			rs = append(rs, rf{role, n})
		}
	}
	for i := 1; i < len(rs); i++ { // insertion sort; tiny n
		for j := i; j > 0 && (rs[j].n > rs[j-1].n || (rs[j].n == rs[j-1].n && rs[j].role < rs[j-1].role)); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
	if len(rs) > k {
		rs = rs[:k]
	}
	out := ""
	for i, r := range rs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", r.role, r.n)
	}
	if out == "" {
		out = "-"
	}
	return out
}
