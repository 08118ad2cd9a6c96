// Command lfrcbench runs the reproduction's experiment suite (E1..E4,
// E7..E9, A2, L1, G1, O2..O6, R3 — see DESIGN.md §4 and EXPERIMENTS.md) and
// prints one table per experiment, in the same format EXPERIMENTS.md
// records. Each experiment checks a paper claim or a property; performance
// records are taken and compared by the benchmark under bench/, not here.
//
// Usage:
//
//	lfrcbench [-run E1,E4] [-engine locking|mcas|both] [-rc split|figure2]
//	          [-scale N] [-dur 250ms] [-workers 8]
//	          [-markdown] [-stats-json] [-census] [-metrics addr]
//	          [-trace out.json] [-fault-plan plan] [-fault-seed N]
//
// With no -run flag every experiment runs; an unknown id is an error.
// -fault-plan replaces the experiment tables with a chaos run of all four
// structures under that fault-injection plan (see chaos.go); -rc selects its
// counting strategy (split, lfrc.New's default, unless set) and -workers its
// worker count. -stats-json appends
// the final unified System.Stats of the last system an experiment or the
// chaos run published (O2..O6, R3) as one JSON object on stdout.
// -metrics serves /metrics (Prometheus text), /debug/vars (expvar),
// /debug/lfrc/{stats,trace} (JSON), /debug/lfrc/trace.json (Chrome
// trace_event export) and /debug/pprof on addr for the lifetime of the run,
// reporting on the same published system; the bound address is echoed as a
// machine-readable "metrics_addr=" line so harnesses can pass ":0". -trace
// writes the published system's Chrome trace_event export (flight events
// plus lifecycle timelines; open in Perfetto) to a file after the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lfrc"
	"lfrc/internal/workload"
)

func main() {
	// SIGQUIT is the field escape hatch: instead of the runtime's goroutine
	// dump, capture a diagnostic bundle of whatever system is currently
	// published (chaos runs, O-series experiments) so a stuck or misbehaving
	// run can be frozen for cmd/lfrcdoctor without killing it.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			writeSignalBundle(os.Stderr)
		}
	}()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lfrcbench:", err)
		os.Exit(1)
	}
}

// writeSignalBundle dumps the published system's bundle to an auto-named file
// and echoes the machine-readable bundle= line on w.
func writeSignalBundle(w io.Writer) {
	sys := workload.CurrentSystem()
	if sys == nil {
		fmt.Fprintln(w, "lfrcbench: SIGQUIT: no published system to bundle yet")
		return
	}
	path := fmt.Sprintf("lfrc-sigquit-%d.tar.gz", os.Getpid())
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(w, "lfrcbench: SIGQUIT: %v\n", err)
		return
	}
	werr := sys.WriteBundle(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(w, "lfrcbench: SIGQUIT: %v\n", werr)
		return
	}
	fmt.Fprintf(w, "bundle=%s\n", path)
}

// experiment is one table lfrcbench can print. perEngine experiments run once
// per selected engine; the rest sweep the engines themselves and run once.
type experiment struct {
	id        string
	perEngine bool
	run       func(p params) *workload.Table
}

// params carries the flag values an experiment may read.
type params struct {
	kind  workload.EngineKind
	scale workload.Scale
	dur   time.Duration
}

// experiments is the registry behind both -run validation and dispatch, in
// output order.
var experiments = []experiment{
	{"E1", true, func(p params) *workload.Table { return workload.RunE1(p.kind, p.scale) }},
	{"E2", true, func(p params) *workload.Table { return workload.RunE2(p.kind, p.scale) }},
	{"E3", true, func(p params) *workload.Table { return workload.RunE3(p.kind, p.scale) }},
	{"E4", true, func(p params) *workload.Table { return workload.RunE4(p.kind, p.dur) }},
	{"E7", true, func(p params) *workload.Table { return workload.RunE7(p.kind, p.scale) }},
	{"E8", true, func(p params) *workload.Table { return workload.RunE8(p.kind, p.scale) }},
	{"E9", true, func(p params) *workload.Table { return workload.RunE9(p.kind, p.scale) }},
	{"A2", true, func(p params) *workload.Table { return workload.RunA2(p.kind, p.scale) }},
	{"L1", true, func(p params) *workload.Table { return workload.RunL1(p.kind, p.scale) }},
	{"G1", true, func(p params) *workload.Table { return workload.RunG1(p.kind, p.dur) }},
	{"O2", true, func(p params) *workload.Table { return workload.RunO2(p.kind, p.dur) }},
	{"O3", true, func(p params) *workload.Table { return workload.RunO3(p.kind, p.dur) }},
	{"O4", true, func(p params) *workload.Table { return workload.RunO4(p.kind, p.dur) }},
	{"O5", true, func(p params) *workload.Table { return workload.RunO5(p.kind, p.scale) }},
	{"O6", true, func(p params) *workload.Table { return workload.RunO6(p.kind, p.dur) }},
	{"R3", false, func(p params) *workload.Table { return workload.RunR3(p.dur) }},
}

// parseRunList turns -run into a set of upper-cased experiment ids; empty
// means every experiment. An id not in the registry is an error naming the
// valid ones.
func parseRunList(s string) (map[string]bool, error) {
	wanted := map[string]bool{}
	known := map[string]bool{}
	var ids []string
	for _, e := range experiments {
		known[e.id] = true
		ids = append(ids, e.id)
	}
	for _, id := range strings.Split(s, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (want one of %s)", id, strings.Join(ids, ", "))
		}
		wanted[id] = true
	}
	return wanted, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lfrcbench", flag.ContinueOnError)
	var (
		runList   = fs.String("run", "", "comma-separated experiment ids (default: all)")
		engine    = fs.String("engine", "locking", "engine for single-engine experiments: locking, mcas or both")
		scale     = fs.Int("scale", 1, "iteration multiplier (1 = quick)")
		dur       = fs.Duration("dur", 250*time.Millisecond, "measurement window for timed experiments")
		workers   = fs.Int("workers", 8, "chaos mode: worker goroutines")
		markdown  = fs.Bool("markdown", false, "emit GitHub-flavoured markdown tables")
		statsJSON = fs.Bool("stats-json", false, "dump the published system's unified Stats as JSON on stdout after the run")
		metrics   = fs.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9100) during the run")
		tracePath = fs.String("trace", "", "write the published system's Chrome trace_event export to this file after the run")
		faultPlan = fs.String("fault-plan", "", "chaos mode: skip the experiment tables and stress all structures under this fault-injection plan (e.g. 'core.*:p=0.01;mem.alloc:every=500')")
		faultSeed = fs.Uint64("fault-seed", 1, "fault-injection seed; same seed and plan replay the same firing schedule")
		bundle    = fs.String("bundle", "", "chaos mode: write the diagnostic bundle here even on PASS; a FAIL always captures one (auto-named lfrc-chaos-<engine>-<rc>.tar.gz when unset)")
		destroyB  = fs.Int("destroy-budget", 0, "chaos mode: incremental-destroy budget (objects parked per release; 0 = eager)")
		doCensus  = fs.Bool("census", false, "after the run, take a heap census of the published system, drain zombies, take another, and print the summaries plus the diff")
	)
	rcStrategy := lfrc.RCSplit // lfrc.New's default
	fs.Var(&rcStrategy, "rc", "chaos mode: reference-count strategy, split or the paper's figure2 (experiment R3 always measures both)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	kinds, err := parseEngines(*engine)
	if err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers: worker count %d < 1", *workers)
	}
	wanted, err := parseRunList(*runList)
	if err != nil {
		return fmt.Errorf("-run: %w", err)
	}
	chaosMode := *faultPlan != ""
	if chaosMode && len(kinds) != 1 {
		return fmt.Errorf("-fault-plan: pick a single engine (locking or mcas), not both")
	}

	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(stdout, "metrics listening on http://%s/metrics\n", ln.Addr())
		// Machine-readable form for harnesses that bind ":0" and need the
		// chosen port.
		fmt.Fprintf(stdout, "metrics_addr=%s\n", ln.Addr())
		go func() {
			_ = http.Serve(ln, lfrc.NewDebugMux(workload.CurrentSystem))
		}()
	}

	// -fault-plan replaces the experiment tables with the chaos run; the tail
	// flags (-trace, -census, -stats-json) still apply to the system it
	// published, and its verdict is returned after them.
	var chaosErr error
	if chaosMode {
		chaosErr = runChaos(stdout, lfrc.Engine(kinds[0]), rcStrategy, *faultPlan, *faultSeed, *dur, *workers, *bundle, *destroyB)
	} else {
		emit := func(t *workload.Table) {
			if *markdown {
				fmt.Fprintln(stdout, t.Markdown())
			} else {
				fmt.Fprintln(stdout, t.String())
			}
		}
		want := func(e experiment) bool { return len(wanted) == 0 || wanted[e.id] }
		p := params{scale: workload.Scale(*scale), dur: *dur}
		for _, kind := range kinds {
			p.kind = kind
			for _, e := range experiments {
				if e.perEngine && want(e) {
					emit(e.run(p))
				}
			}
		}
		for _, e := range experiments {
			if !e.perEngine && want(e) {
				emit(e.run(p))
			}
		}
	}
	return errors.Join(chaosErr, tail(stdout, *tracePath, *doCensus, *statsJSON))
}

// tail runs the after-the-run flags on the published system.
func tail(stdout io.Writer, tracePath string, doCensus, statsJSON bool) error {
	if tracePath != "" {
		sys := workload.CurrentSystem()
		if sys == nil {
			return fmt.Errorf("-trace: no experiment published a System (include O2 in -run)")
		}
		f, err := os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		if err := sys.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("-trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", tracePath)
	}

	if doCensus {
		sys := workload.CurrentSystem()
		if sys == nil {
			return fmt.Errorf("-census: no experiment published a System (include O2 or O5 in -run)")
		}
		reportCensus(stdout, sys)
	}

	if statsJSON {
		sys := workload.CurrentSystem()
		if sys == nil {
			return fmt.Errorf("-stats-json: no experiment published a System (include O2 in -run)")
		}
		raw, err := json.Marshal(sys.Stats())
		if err != nil {
			return fmt.Errorf("-stats-json: %w", err)
		}
		fmt.Fprintln(stdout, string(raw))
	}
	return nil
}

// parseEngines accepts everything lfrc.ParseEngine does, plus "both" for the
// engine-comparison sweeps. workload.EngineKind values are numerically
// aligned with lfrc.Engine.
func parseEngines(s string) ([]workload.EngineKind, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "both" {
		return workload.Engines, nil
	}
	e, err := lfrc.ParseEngine(s)
	if err != nil {
		return nil, fmt.Errorf(`unknown engine %q (want "locking", "mcas" or "both")`, s)
	}
	return []workload.EngineKind{workload.EngineKind(e)}, nil
}
