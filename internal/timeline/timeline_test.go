package timeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fillCumulative writes a deterministic cumulative counter set derived from
// tick into every field the delta pass touches, plus a few gauges.
func fillCumulative(s *Sample, tick int64) {
	s.HeapAllocs = 10 * tick
	s.HeapFrees = 9 * tick
	s.HeapLiveObjects = tick // gauge
	s.RCLoads = 100 * tick
	s.RCStores = 50 * tick
	s.RCDCAS = 25 * tick
	s.Shards = 2
	s.ShardAllocs[0] = 4 * tick
	s.ShardAllocs[1] = 6 * tick
	s.Zombies = 3 // gauge
	s.ReclaimRetired = 7 * tick
	s.ReclaimFreed = 6 * tick
	s.ReclaimPending = tick % 5 // gauge
	s.FaultInjected = uint64(2 * tick)
	s.ObsRecorded = uint64(3 * tick)
	s.LatLoadP50 = 128 // quantile: instantaneous
	s.Hot[0] = HotCell{Addr: 0x40, RoleID: 1, Hot: tick, Failures: tick / 2}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var s Sample
	fillCumulative(&s, 41)
	s.TS = 12345
	s.DurNS = 678
	var buf [payloadWords]uint64
	s.encode(&buf)
	var got Sample
	got.decode(&buf)
	got.Seq = s.Seq
	if got != s {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestDeltasAndGauges(t *testing.T) {
	tick := int64(0)
	s := New(func(sm *Sample) {
		tick++
		fillCumulative(sm, tick)
	})
	s.CaptureNow()
	s.CaptureNow()
	ss := s.Snapshot()
	if len(ss) != 2 {
		t.Fatalf("retained %d samples, want 2", len(ss))
	}
	first, second := ss[0], ss[1]
	// First capture has no baseline: published as-is with DurNS 0.
	if first.DurNS != 0 {
		t.Errorf("first capture DurNS = %d, want 0", first.DurNS)
	}
	// Second capture: counters are per-interval deltas of the cumulative
	// ramp, gauges instantaneous.
	if second.RCLoads != 100 || second.RCStores != 50 || second.RCDCAS != 25 {
		t.Errorf("rc deltas = %d/%d/%d, want 100/50/25",
			second.RCLoads, second.RCStores, second.RCDCAS)
	}
	if second.HeapAllocs != 10 || second.HeapFrees != 9 {
		t.Errorf("heap deltas = %d/%d, want 10/9", second.HeapAllocs, second.HeapFrees)
	}
	if second.ShardAllocs[0] != 4 || second.ShardAllocs[1] != 6 {
		t.Errorf("shard deltas = %v, want [4 6 ...]", second.ShardAllocs)
	}
	if second.ReclaimRetired != 7 || second.ReclaimFreed != 6 {
		t.Errorf("reclaim deltas = %d/%d, want 7/6", second.ReclaimRetired, second.ReclaimFreed)
	}
	if second.FaultInjected != 2 || second.ObsRecorded != 3 {
		t.Errorf("fault/obs deltas = %d/%d, want 2/3", second.FaultInjected, second.ObsRecorded)
	}
	// Gauges stay instantaneous.
	if second.HeapLiveObjects != 2 {
		t.Errorf("live objects gauge = %d, want 2", second.HeapLiveObjects)
	}
	if second.Zombies != 3 || second.LatLoadP50 != 128 {
		t.Errorf("gauge fields disturbed: zombies=%d latp50=%d", second.Zombies, second.LatLoadP50)
	}
	if second.Ops() != 100+50+25 {
		t.Errorf("Ops() = %d, want 175", second.Ops())
	}
	if second.DurNS <= 0 {
		t.Errorf("second capture DurNS = %d, want > 0", second.DurNS)
	}
	if second.Rate() <= 0 {
		t.Errorf("Rate() = %v, want > 0", second.Rate())
	}
}

func TestDeltaClampsBackwardCounters(t *testing.T) {
	vals := []int64{100, 40} // striped read runs backwards
	i := 0
	s := New(func(sm *Sample) {
		sm.RCLoads = vals[i]
		i++
	})
	s.CaptureNow()
	s.CaptureNow()
	ss := s.Snapshot()
	if got := ss[1].RCLoads; got != 0 {
		t.Fatalf("backwards counter delta = %d, want clamp to 0", got)
	}
}

func TestWraparoundDropsOldest(t *testing.T) {
	tick := int64(0)
	s := New(func(sm *Sample) {
		tick++
		fillCumulative(sm, tick)
	}, WithSlots(8))
	if s.Slots() != 8 {
		t.Fatalf("Slots() = %d, want 8", s.Slots())
	}
	const captures = 100
	for i := 0; i < captures; i++ {
		s.CaptureNow()
	}
	ss := s.Snapshot()
	if len(ss) != 8 {
		t.Fatalf("retained %d samples after wraparound, want 8", len(ss))
	}
	for i, sm := range ss {
		want := uint64(captures - 8 + 1 + i)
		if sm.Seq != want {
			t.Errorf("sample %d Seq = %d, want %d (newest 8 retained, oldest dropped)", i, sm.Seq, want)
		}
	}
	st := s.Stats()
	if st.Captures != captures || st.Retained != 8 || st.Dropped != captures-8 {
		t.Errorf("Stats = %+v, want captures=%d retained=8 dropped=%d", st, captures, captures-8)
	}
}

func TestSlotsRoundUpToPowerOfTwo(t *testing.T) {
	s := New(func(*Sample) {}, WithSlots(100))
	if s.Slots() != 128 {
		t.Errorf("Slots() = %d, want 128", s.Slots())
	}
	s = New(func(*Sample) {}, WithSlots(1))
	if s.Slots() != 8 {
		t.Errorf("Slots() = %d, want minimum 8", s.Slots())
	}
}

// TestConcurrentCaptureAndRead drives capture and Snapshot from concurrent
// goroutines; under -race this proves the seqlock publication is data-race
// free, and the body checks no torn sample ever escapes (deltas derived from
// the same tick are internally consistent).
func TestConcurrentCaptureAndRead(t *testing.T) {
	tick := int64(0)
	s := New(func(sm *Sample) {
		tick++
		// Invariant a torn read would break: RCStores is always
		// exactly half RCLoads in cumulative space, so any published
		// delta must keep the 2:1 ratio.
		sm.RCLoads = 200 * tick
		sm.RCStores = 100 * tick
	}, WithSlots(16))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.CaptureNow()
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sm := range s.Snapshot() {
					if sm.Seq > 1 && sm.RCLoads != 2*sm.RCStores {
						t.Errorf("torn sample escaped: seq=%d loads=%d stores=%d",
							sm.Seq, sm.RCLoads, sm.RCStores)
						return
					}
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestStartStopBackgroundSampler(t *testing.T) {
	var mu sync.Mutex
	tick := int64(0)
	s := New(func(sm *Sample) {
		mu.Lock()
		tick++
		fillCumulative(sm, tick)
		mu.Unlock()
	}, WithInterval(time.Millisecond))
	s.Start()
	deadline := time.Now().Add(2 * time.Second)
	for s.Captures() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if got := s.Captures(); got < 5 {
		t.Fatalf("background sampler took %d captures in 2s, want >= 5", got)
	}
	after := s.Captures()
	time.Sleep(5 * time.Millisecond)
	if got := s.Captures(); got != after {
		t.Errorf("sampler still capturing after Stop: %d -> %d", after, got)
	}
	s.Stop() // idempotent
}

func TestRoleNamesFilledAtSnapshot(t *testing.T) {
	s := New(func(sm *Sample) {
		sm.Hot[0] = HotCell{Addr: 0x10, RoleID: 2, Hot: 5}
	}, WithRoleNames(func(id uint8) string {
		if id == 2 {
			return "left_hat"
		}
		return "?"
	}))
	s.CaptureNow()
	ss := s.Snapshot()
	if got := ss[0].Hot[0].Role; got != "left_hat" {
		t.Errorf("Role = %q, want left_hat", got)
	}
	if got := ss[0].Hot[1].Role; got != "" {
		t.Errorf("empty cell got role %q", got)
	}
}

func TestNilSamplerIsSafe(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Stop()
	s.CaptureNow()
	if s.Snapshot() != nil || s.Captures() != 0 || s.Slots() != 0 {
		t.Error("nil sampler leaked state")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil Stats = %+v, want zero", st)
	}
	doc := s.Document()
	if doc.Enabled || doc.SchemaVersion != SchemaVersion || len(doc.Samples) != 0 {
		t.Errorf("nil Document = %+v", doc)
	}
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	b.Reset()
	if err := s.WriteCSV(&b); err != nil {
		t.Fatalf("nil WriteCSV: %v", err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != 1 {
		t.Errorf("nil CSV has %d lines, want header only", lines)
	}
}

func TestWriteJSONDocument(t *testing.T) {
	tick := int64(0)
	s := New(func(sm *Sample) {
		tick++
		fillCumulative(sm, tick)
	}, WithSlots(8), WithRoleNames(func(uint8) string { return "role" }))
	for i := 0; i < 3; i++ {
		s.CaptureNow()
	}
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc Doc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.SchemaVersion != SchemaVersion || !doc.Enabled {
		t.Errorf("doc header = %+v", doc)
	}
	if len(doc.Samples) != 3 || doc.Captures != 3 {
		t.Errorf("doc carries %d samples / %d captures, want 3/3", len(doc.Samples), doc.Captures)
	}
	if doc.Samples[0].Seq != 1 || doc.Samples[2].Seq != 3 {
		t.Errorf("samples out of order: %d..%d", doc.Samples[0].Seq, doc.Samples[2].Seq)
	}
}

func TestWriteCSVShape(t *testing.T) {
	tick := int64(0)
	s := New(func(sm *Sample) {
		tick++
		fillCumulative(sm, tick)
	}, WithSlots(8))
	for i := 0; i < 2; i++ {
		s.CaptureNow()
	}
	var b bytes.Buffer
	if err := s.WriteCSV(&b); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	cols := strings.Split(lines[0], ",")
	if len(cols) != len(csvColumns) {
		t.Fatalf("header has %d columns, want %d", len(cols), len(csvColumns))
	}
	for i, line := range lines[1:] {
		if got := strings.Count(line, ",") + 1; got != len(csvColumns) {
			t.Errorf("row %d has %d fields, want %d", i, got, len(csvColumns))
		}
	}
}

// BenchmarkCapture measures the raw sampler cost with a realistic-size
// capture callback; the root package's BenchmarkTimelineCapture measures the
// full stack against a live system.
func BenchmarkCapture(b *testing.B) {
	tick := int64(0)
	s := New(func(sm *Sample) {
		tick++
		fillCumulative(sm, tick)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CaptureNow()
	}
}
