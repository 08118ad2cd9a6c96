package linear

import (
	"errors"
	"testing"
)

// seqEvent builds a non-overlapping event at logical time t.
func seqEvent(t int64, op Op) Event {
	return Event{Op: op, Invoke: t * 10, Return: t*10 + 5}
}

// overlapping builds an event covering [from, to].
func overlapping(from, to int64, op Op) Event {
	return Event{Op: op, Invoke: from, Return: to}
}

func push(side int, v uint64) Op { return Op{Action: side, Input: v, OK: true} }
func popOK(side int, v uint64) Op {
	return Op{Action: side, Output: v, OK: true}
}
func popEmpty(side int) Op { return Op{Action: side} }

func TestEmptyHistoryIsLinearizable(t *testing.T) {
	res, err := CheckEvents(DequeSpec{}, nil)
	if err != nil || !res.Linearizable {
		t.Fatalf("empty history: %v %v", res, err)
	}
}

func TestSequentialDequeHistory(t *testing.T) {
	events := []Event{
		seqEvent(1, push(ActPushRight, 1)),
		seqEvent(2, push(ActPushRight, 2)),
		seqEvent(3, popOK(ActPopLeft, 1)),
		seqEvent(4, push(ActPushLeft, 3)),
		seqEvent(5, popOK(ActPopRight, 2)),
		seqEvent(6, popOK(ActPopLeft, 3)),
		seqEvent(7, popEmpty(ActPopLeft)),
	}
	res, err := CheckEvents(DequeSpec{}, events)
	if err != nil || !res.Linearizable {
		t.Fatalf("legal sequential history rejected: %v %v", res, err)
	}
}

func TestSequentialFIFOViolationRejected(t *testing.T) {
	// Two non-overlapping pushes then pops in the wrong order: no
	// linearization may reorder non-overlapping operations.
	events := []Event{
		seqEvent(1, push(ActPushRight, 1)),
		seqEvent(2, push(ActPushRight, 2)),
		seqEvent(3, popOK(ActPopLeft, 2)), // must have been 1
		seqEvent(4, popOK(ActPopLeft, 1)),
	}
	if _, err := CheckEvents(DequeSpec{}, events); err == nil {
		t.Fatal("FIFO violation accepted")
	}
}

func TestOverlappingReorderAccepted(t *testing.T) {
	// The same wrong-looking pop order is fine when the pushes overlap:
	// they may linearize in either order.
	events := []Event{
		overlapping(0, 100, push(ActPushRight, 1)),
		overlapping(0, 100, push(ActPushRight, 2)),
		seqEvent(20, popOK(ActPopLeft, 2)), // waits: invoke 200
		seqEvent(21, popOK(ActPopLeft, 1)),
	}
	res, err := CheckEvents(DequeSpec{}, events)
	if err != nil || !res.Linearizable {
		t.Fatalf("legal overlapped history rejected: %v %v", res, err)
	}
}

func TestPopOfUnknownValueRejected(t *testing.T) {
	events := []Event{
		seqEvent(1, push(ActPushRight, 1)),
		seqEvent(2, popOK(ActPopLeft, 99)),
	}
	if _, err := CheckEvents(DequeSpec{}, events); err == nil {
		t.Fatal("pop of never-pushed value accepted")
	}
}

func TestDuplicateDeliveryRejected(t *testing.T) {
	events := []Event{
		seqEvent(1, push(ActPushRight, 7)),
		seqEvent(2, popOK(ActPopLeft, 7)),
		seqEvent(3, popOK(ActPopLeft, 7)),
	}
	if _, err := CheckEvents(DequeSpec{}, events); err == nil {
		t.Fatal("duplicate delivery accepted")
	}
}

func TestEmptyPopWhileValuePresentRejected(t *testing.T) {
	events := []Event{
		seqEvent(1, push(ActPushRight, 7)),
		seqEvent(2, popEmpty(ActPopLeft)),
		seqEvent(3, popOK(ActPopLeft, 7)),
	}
	if _, err := CheckEvents(DequeSpec{}, events); err == nil {
		t.Fatal("empty pop with value present accepted")
	}
}

func TestEmptyPopOverlappingPushAccepted(t *testing.T) {
	events := []Event{
		overlapping(0, 100, push(ActPushRight, 7)),
		overlapping(1, 99, popEmpty(ActPopLeft)), // may linearize before the push
		seqEvent(20, popOK(ActPopLeft, 7)),
	}
	res, err := CheckEvents(DequeSpec{}, events)
	if err != nil || !res.Linearizable {
		t.Fatalf("legal empty-pop overlap rejected: %v %v", res, err)
	}
}

func TestStackLIFOHistory(t *testing.T) {
	events := []Event{
		seqEvent(1, push(ActPushRight, 1)),
		seqEvent(2, push(ActPushRight, 2)),
		seqEvent(3, popOK(ActPopRight, 2)),
		seqEvent(4, popOK(ActPopRight, 1)),
	}
	res, err := CheckEvents(DequeSpec{}, events)
	if err != nil || !res.Linearizable {
		t.Fatalf("legal LIFO history rejected: %v %v", res, err)
	}
}

func TestSetSpecHistories(t *testing.T) {
	ins := func(k uint64, ok bool) Op { return Op{Action: ActInsert, Input: k, OK: ok} }
	del := func(k uint64, ok bool) Op { return Op{Action: ActDelete, Input: k, OK: ok} }
	has := func(k uint64, ok bool) Op { return Op{Action: ActContains, Input: k, OK: ok} }

	t.Run("legal", func(t *testing.T) {
		events := []Event{
			seqEvent(1, ins(5, true)),
			seqEvent(2, ins(5, false)),
			seqEvent(3, has(5, true)),
			seqEvent(4, del(5, true)),
			seqEvent(5, del(5, false)),
			seqEvent(6, has(5, false)),
		}
		if _, err := CheckEvents(SetSpec{}, events); err != nil {
			t.Fatalf("legal set history rejected: %v", err)
		}
	})
	t.Run("double insert both succeed", func(t *testing.T) {
		events := []Event{
			seqEvent(1, ins(5, true)),
			seqEvent(2, ins(5, true)),
		}
		if _, err := CheckEvents(SetSpec{}, events); err == nil {
			t.Fatal("two successful non-overlapping inserts accepted")
		}
	})
	t.Run("racing inserts one wins", func(t *testing.T) {
		events := []Event{
			overlapping(0, 10, ins(5, true)),
			overlapping(0, 10, ins(5, false)),
		}
		if _, err := CheckEvents(SetSpec{}, events); err != nil {
			t.Fatalf("racing inserts rejected: %v", err)
		}
	})
	t.Run("contains sees deleted key", func(t *testing.T) {
		events := []Event{
			seqEvent(1, ins(5, true)),
			seqEvent(2, del(5, true)),
			seqEvent(3, has(5, true)), // stale read: illegal
		}
		if _, err := CheckEvents(SetSpec{}, events); err == nil {
			t.Fatal("stale contains accepted")
		}
	})
}

func TestLongSequentialHistoryIsFast(t *testing.T) {
	// The candidate scan stops at the first pending event that returned
	// before the candidate invoked, so in a history with no overlap each
	// configuration has one candidate and the search is linear in its
	// length.
	var events []Event
	for i := int64(0); i < 5000; i++ {
		events = append(events, seqEvent(2*i, push(ActPushRight, uint64(i+1))))
		events = append(events, seqEvent(2*i+1, popOK(ActPopLeft, uint64(i+1))))
	}
	res, err := CheckEvents(DequeSpec{}, events)
	if err != nil || !res.Linearizable {
		t.Fatalf("long history rejected: %v %v", res, err)
	}
	if res.StatesExplored > 4*len(events) {
		t.Errorf("search not linear: explored %d states for %d events", res.StatesExplored, len(events))
	}
}

func TestRecorderLimitsConcurrency(t *testing.T) {
	r := NewRecorder(2)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func(i int) {
			r.Record(func() Op { return push(ActPushRight, uint64(i+1)) })
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if got := r.History().Len(); got != 4 {
		t.Errorf("recorded %d events, want 4", got)
	}
}

func TestStateBudgetReportsUndecided(t *testing.T) {
	// Six overlapping pushes, then a pop of a value nobody pushed: only an
	// exhaustive search over the pushes' orders rules the history out.
	var events []Event
	for v := uint64(1); v <= 6; v++ {
		events = append(events, overlapping(0, 100, push(ActPushRight, v)))
	}
	events = append(events, Event{Op: popOK(ActPopLeft, 7), Invoke: 200, Return: 210})

	res, err := checkEvents(DequeSpec{}, events, 100, maxDuration)
	if !errors.Is(err, ErrUndecided) || res.Linearizable {
		t.Fatalf("budget 100: %+v, %v; want ErrUndecided", res, err)
	}
	// The time bound: with no time to spend, the search gives up at its
	// first clock check (state 1024) although the state budget is far off.
	res, err = checkEvents(DequeSpec{}, events, maxStates, 0)
	if !errors.Is(err, ErrUndecided) || res.StatesExplored != 1024 {
		t.Fatalf("time limit 0: %v after %d states; want ErrUndecided at state 1024", err, res.StatesExplored)
	}
	res, err = CheckEvents(DequeSpec{}, events)
	if err == nil || errors.Is(err, ErrUndecided) {
		t.Fatalf("full budget: %v after %d states; want a decided rejection", err, res.StatesExplored)
	}
}
