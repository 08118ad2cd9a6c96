package workload

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// These tests run every experiment driver at small scale and assert the
// *shape* each claims in its notes — they are the executable form of
// EXPERIMENTS.md.

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d):\n%s", tab.ID, row, col, tab)
	}
	return tab.Rows[row][col]
}

func cellInt(t *testing.T, tab *Table, row, col int) int64 {
	t.Helper()
	n, err := strconv.ParseInt(cell(t, tab, row, col), 10, 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q is not an integer", tab.ID, row, col, cell(t, tab, row, col))
	}
	return n
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q is not a float", tab.ID, row, col, cell(t, tab, row, col))
	}
	return f
}

func TestE1Shape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tab := RunE1(EngineLocking, 1)
	if len(tab.Rows) != 2 {
		t.Fatalf("E1 rows = %d, want 2:\n%s", len(tab.Rows), tab)
	}
	// Row 0 = safe, row 1 = naive. Columns: poisoned(4), corruptions(5),
	// double frees(6).
	for col := 4; col <= 6; col++ {
		if got := cellInt(t, tab, 0, col); got != 0 {
			t.Errorf("safe protocol column %d = %d, want 0\n%s", col, got, tab)
		}
	}
	damage := cellInt(t, tab, 1, 4) + cellInt(t, tab, 1, 5) + cellInt(t, tab, 1, 6)
	if damage == 0 {
		t.Errorf("naive protocol caused no observable corruption; expected > 0\n%s", tab)
	}
}

func TestE2Shape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, kind := range Engines {
		tab := RunE2(kind, 1)
		if len(tab.Rows) != 3 {
			t.Fatalf("E2 rows = %d, want 3", len(tab.Rows))
		}
		for r := range tab.Rows {
			if got := cellInt(t, tab, r, 4); got != 0 {
				t.Errorf("%s: %s live after close = %d, want 0", kind, cell(t, tab, r, 0), got)
			}
			if got := cellInt(t, tab, r, 5); got != 0 {
				t.Errorf("%s: %s corruptions = %d, want 0", kind, cell(t, tab, r, 0), got)
			}
		}
	}
}

func TestE3Shape(t *testing.T) {
	tab := RunE3(EngineLocking, 1)
	if len(tab.Rows) != 5 {
		t.Fatalf("E3 rows = %d, want 5:\n%s", len(tab.Rows), tab)
	}
	lfrcStart := cellInt(t, tab, 0, 1)
	lfrcGrown := cellInt(t, tab, 1, 1)
	lfrcDrained := cellInt(t, tab, 2, 1)
	valGrown := cellInt(t, tab, 1, 2)
	valDrained := cellInt(t, tab, 2, 2)

	if lfrcGrown <= lfrcStart {
		t.Errorf("lfrc footprint did not grow: %d -> %d", lfrcStart, lfrcGrown)
	}
	if lfrcDrained != lfrcStart {
		t.Errorf("lfrc footprint after drain = %d, want resting %d", lfrcDrained, lfrcStart)
	}
	if valDrained < valGrown {
		t.Errorf("valois footprint shrank after drain: %d -> %d (type-stable pool should ratchet)", valGrown, valDrained)
	}
}

func TestE4Shape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tab := RunE4(EngineLocking, 100*time.Millisecond)
	if len(tab.Rows) != 2 {
		t.Fatalf("E4 rows = %d, want 2:\n%s", len(tab.Rows), tab)
	}
	lfrcOps := cellInt(t, tab, 0, 3)
	mutexOps := cellInt(t, tab, 1, 3)
	if lfrcOps < 100 {
		t.Errorf("lfrc healthy ops during stall = %d, want progress", lfrcOps)
	}
	// Blocked workers complete at most one op each after release.
	if mutexOps > 16 {
		t.Errorf("mutex healthy ops during stall = %d, want ~0 (lock held)", mutexOps)
	}
}

func TestE7Shape(t *testing.T) {
	for _, kind := range Engines {
		tab := RunE7(kind, 1)
		if len(tab.Rows) != 2 {
			t.Fatalf("E7 rows = %d, want 2", len(tab.Rows))
		}
		cyclicLeaked := cellInt(t, tab, 0, 4)
		nullLeaked := cellInt(t, tab, 1, 4)
		if cyclicLeaked == 0 {
			t.Errorf("%s: self-pointer sentinels leaked 0 objects, expected leaks", kind)
		}
		if nullLeaked != 0 {
			t.Errorf("%s: null sentinels leaked %d objects, want 0", kind, nullLeaked)
		}
	}
}

func TestE8Shape(t *testing.T) {
	tab := RunE8(EngineLocking, 1)
	if len(tab.Rows) != 3 {
		t.Fatalf("E8 rows = %d, want 3:\n%s", len(tab.Rows), tab)
	}
	beforeLive := cellInt(t, tab, 0, 1)
	afterLive := cellInt(t, tab, 1, 1)
	firstFreed := cellInt(t, tab, 1, 2)
	secondFreed := cellInt(t, tab, 2, 2)
	if firstFreed == 0 {
		t.Errorf("first trace freed nothing:\n%s", tab)
	}
	if afterLive >= beforeLive {
		t.Errorf("live objects did not drop after trace: %d -> %d", beforeLive, afterLive)
	}
	if secondFreed != 0 {
		t.Errorf("second trace freed %d, want 0", secondFreed)
	}
}

func TestE9Shape(t *testing.T) {
	for _, kind := range Engines {
		tab := RunE9(kind, 1)
		if got := cellInt(t, tab, 0, 3); got != 0 {
			t.Errorf("%s: E9 mismatches = %d, want 0", kind, got)
		}
	}
}

func TestA2Shape(t *testing.T) {
	tab := RunA2(EngineLocking, 1)
	if len(tab.Rows) != 3 {
		t.Fatalf("A2 rows = %d, want 3:\n%s", len(tab.Rows), tab)
	}
	eagerPause, err := time.ParseDuration(cell(t, tab, 0, 2))
	if err != nil {
		t.Fatalf("bad duration %q", cell(t, tab, 0, 2))
	}
	smallBudgetPause, err := time.ParseDuration(cell(t, tab, 1, 2))
	if err != nil {
		t.Fatalf("bad duration %q", cell(t, tab, 1, 2))
	}
	if smallBudgetPause >= eagerPause {
		t.Errorf("budgeted max pause %v not below eager pause %v", smallBudgetPause, eagerPause)
	}
}

func TestRunThroughputSmoke(t *testing.T) {
	d := NewMutexDeque()
	res := RunThroughput(d, 2, 20*time.Millisecond, Balanced, 10)
	if res.Ops <= 0 {
		t.Errorf("Ops = %d, want > 0", res.Ops)
	}
	if res.OpsPerSec() <= 0 {
		t.Errorf("OpsPerSec = %f, want > 0", res.OpsPerSec())
	}
}

// TestR3Shape runs R3 briefly: two contention rows and two alloc-heavy rows,
// one per strategy. runA3Cell fails a cell unless the closed system
// conserved its objects, took no heap damage and audited clean, and a
// failed cell leaves a FAILED note instead of a row.
func TestR3Shape(t *testing.T) {
	tab := RunR3(10 * time.Millisecond)
	for _, note := range tab.Notes {
		if strings.Contains(note, "FAILED") {
			t.Errorf("R3 cell failed: %s", note)
		}
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("R3 rows = %d, want 4:\n%s", len(tab.Rows), tab)
	}
	for r := range tab.Rows {
		if ops := cellFloat(t, tab, r, 2); ops <= 0 {
			t.Errorf("row %d ops/sec = %f, want > 0", r, ops)
		}
	}
}
