// Command lfrctop is the live terminal dashboard for an lfrc system: it polls
// the /debug/lfrc/timeline.json and /debug/lfrc/incidents.json endpoints (see
// lfrc.WithTimeline, lfrc.WithWatchdog and lfrc.NewDebugMux) and redraws
// sparkline panels for throughput, RC churn, zombie/limbo depth, degradation
// activity, the contention heatmap, and the health watchdog's latest
// incidents.
//
// Usage:
//
//	lfrcbench -run O2 -metrics :8080 &   # anything serving the debug mux
//	lfrctop -addr localhost:8080
//
// Flags:
//
//	-addr     host:port or URL of the debug mux (default localhost:8080)
//	-interval poll/redraw cadence (default 1s)
//	-window   how many trailing samples the sparklines span (default 60)
//	-once     fetch once, print one frame without ANSI control, and exit
//
// The dashboard is stdlib-only: plain ANSI escapes, no terminal library.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"lfrc/internal/timeline"
	"lfrc/internal/watchdog"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "debug-mux address (host:port or full URL)")
	interval := flag.Duration("interval", time.Second, "poll/redraw cadence")
	window := flag.Int("window", 60, "trailing samples shown in sparklines")
	once := flag.Bool("once", false, "fetch once, print one plain frame, exit")
	flag.Parse()

	url := timelineURL(*addr)
	incURL := incidentsURL(*addr)
	client := &http.Client{Timeout: 5 * time.Second}

	if *once {
		doc, err := fetch(client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfrctop: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(render(doc, fetchIncidents(client, incURL), *window, time.Now()))
		return
	}

	// Alternate-screen + hidden cursor for flicker-free redraw; restore on
	// exit. Each frame homes the cursor and clears to end-of-screen.
	fmt.Print("\x1b[?1049h\x1b[?25l")
	defer fmt.Print("\x1b[?25h\x1b[?1049l")
	for {
		doc, err := fetch(client, url)
		frame := ""
		if err != nil {
			frame = fmt.Sprintf("lfrctop: %s\n\n%v\n(retrying every %v)\n", url, err, *interval)
		} else {
			frame = render(doc, fetchIncidents(client, incURL), *window, time.Now())
		}
		fmt.Print("\x1b[H" + strings.ReplaceAll(frame, "\n", "\x1b[K\n") + "\x1b[J")
		time.Sleep(*interval)
	}
}

// timelineURL normalizes -addr into the timeline endpoint URL.
func timelineURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/") + "/debug/lfrc/timeline.json"
}

// incidentsURL normalizes -addr into the watchdog incidents endpoint URL.
func incidentsURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/") + "/debug/lfrc/incidents.json"
}

// fetchIncidents retrieves the watchdog incident document. Best-effort: any
// error (including a mux predating the endpoint) yields a zero document,
// which renders as no panel at all.
func fetchIncidents(client *http.Client, url string) watchdog.Doc {
	var doc watchdog.Doc
	resp, err := client.Get(url)
	if err != nil {
		return watchdog.Doc{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return watchdog.Doc{}
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return watchdog.Doc{}
	}
	return doc
}

// fetch retrieves and decodes one timeline document.
func fetch(client *http.Client, url string) (timeline.Doc, error) {
	var doc timeline.Doc
	resp, err := client.Get(url)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("decode %s: %w", url, err)
	}
	if doc.SchemaVersion != timeline.SchemaVersion {
		return doc, fmt.Errorf("timeline schema v%d, this lfrctop speaks v%d", doc.SchemaVersion, timeline.SchemaVersion)
	}
	return doc, nil
}
