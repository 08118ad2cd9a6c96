package lfrc

import (
	"iter"
	"sync/atomic"

	"lfrc/internal/mem"
	"lfrc/internal/msqueue"
	"lfrc/internal/snark"
	"lfrc/internal/stackrc"
)

// handle is the lifecycle state embedded in every structure wrapper: it
// registers the structure's anchor as a tracing-collector root at creation
// and deregisters it on the first Close.
type handle struct {
	sys    *System
	anchor mem.Ref
	closed atomic.Bool
	drain  func()
}

// newHandle roots anchor with the collector — labeled with the structure
// kind, so the heap census and DOT export can say *which* structure keeps a
// subgraph alive — and returns the handle that will unroot it; drain is the
// structure's own teardown, run once by Close.
func (s *System) newHandle(anchor mem.Ref, kind string, drain func()) handle {
	if anchor != 0 {
		s.collector.AddNamedRoot(anchor, kind)
	}
	return handle{sys: s, anchor: anchor, drain: drain}
}

// Close drains the structure and releases all of its memory. It must not run
// concurrently with other operations on the structure, and the structure
// must not be used afterwards. Closing an already-closed structure is a
// no-op.
func (h *handle) Close() {
	if h.closed.Swap(true) {
		return
	}
	if h.anchor != 0 {
		h.sys.collector.RemoveRoot(h.anchor)
	}
	h.drain()
}

// DequeOption configures a Deque.
type DequeOption interface {
	applyDeque(*dequeConfig)
}

type dequeConfig struct {
	claiming bool
}

type dequeOptionFunc func(*dequeConfig)

func (f dequeOptionFunc) applyDeque(c *dequeConfig) { f(c) }

// WithValueClaiming makes pops claim each node's value with a CAS before
// returning it. The published Snark algorithm has races discovered after
// publication (Doherty et al., SPAA 2004) near emptiness; claiming hardens
// delivery to at-most-once. Enable it when values must not be delivered
// twice; leave it off to run the paper-faithful algorithm. With or without
// it, a pop racing an opposite-side pop can report empty while the deque
// holds a value.
func WithValueClaiming() DequeOption {
	return dequeOptionFunc(func(c *dequeConfig) { c.claiming = true })
}

// Deque is a GC-independent Snark lock-free double-ended queue.
type Deque struct {
	d *snark.Deque
	handle
}

// NewDeque creates an empty deque on this system.
func (s *System) NewDeque(opts ...DequeOption) (*Deque, error) {
	var cfg dequeConfig
	for _, o := range opts {
		o.applyDeque(&cfg)
	}
	var sopts []snark.Option
	if cfg.claiming {
		sopts = append(sopts, snark.WithValueClaiming())
	}
	ts, err := s.snarkTypes.get(s.heap, snark.RegisterTypes)
	if err != nil {
		return nil, err
	}
	var d *snark.Deque
	if err := s.withPressure(func() error {
		var err error
		d, err = snark.New(s.rc, ts, sopts...)
		return err
	}); err != nil {
		return nil, err
	}
	return &Deque{d: d, handle: s.newHandle(d.Anchor(), "deque", d.Close)}, nil
}

// PushLeft prepends v. It fails with ErrValueRange if v exceeds MaxValue,
// ErrClosed after Close, and ErrOutOfMemory if the heap is exhausted (after
// the heap-pressure policy, if any, has run).
func (d *Deque) PushLeft(v Value) error {
	if d.closed.Load() {
		return ErrClosed
	}
	err := d.d.PushLeft(v)
	if err != nil {
		err = d.sys.retryPressure(err, func() error { return d.d.PushLeft(v) })
	}
	return err
}

// PushRight appends v. It fails with ErrValueRange if v exceeds MaxValue,
// ErrClosed after Close, and ErrOutOfMemory if the heap is exhausted (after
// the heap-pressure policy, if any, has run).
func (d *Deque) PushRight(v Value) error {
	if d.closed.Load() {
		return ErrClosed
	}
	err := d.d.PushRight(v)
	if err != nil {
		err = d.sys.retryPressure(err, func() error { return d.d.PushRight(v) })
	}
	return err
}

// PopLeft removes and returns the leftmost value; ok is false when the
// deque is observed empty or closed.
func (d *Deque) PopLeft() (v Value, ok bool) {
	if d.closed.Load() {
		return 0, false
	}
	return d.d.PopLeft()
}

// PopRight removes and returns the rightmost value; ok is false when the
// deque is observed empty or closed.
func (d *Deque) PopRight() (v Value, ok bool) {
	if d.closed.Load() {
		return 0, false
	}
	return d.d.PopRight()
}

// Drain returns an iterator that pops values from the left end until the
// deque is observed empty, consuming the deque:
//
//	for v := range d.Drain() { use(v) }
//
// Each value is produced by one PopLeft, so draining is safe to run
// concurrently with other operations — every value is delivered to exactly
// one consumer — though concurrent pushes can of course keep a drain from
// terminating. Breaking out of the loop simply stops popping. A closed
// deque yields nothing.
func (d *Deque) Drain() iter.Seq[Value] {
	return func(yield func(Value) bool) {
		for !d.closed.Load() {
			v, ok := d.d.PopLeft()
			if !ok || !yield(v) {
				return
			}
		}
	}
}

// Queue is a GC-independent Michael–Scott lock-free FIFO queue.
type Queue struct {
	q *msqueue.Queue
	handle
}

// NewQueue creates an empty queue on this system.
func (s *System) NewQueue() (*Queue, error) {
	ts, err := s.queueTypes.get(s.heap, msqueue.RegisterTypes)
	if err != nil {
		return nil, err
	}
	var q *msqueue.Queue
	if err := s.withPressure(func() error {
		var err error
		q, err = msqueue.New(s.rc, ts)
		return err
	}); err != nil {
		return nil, err
	}
	return &Queue{q: q, handle: s.newHandle(q.Anchor(), "queue", q.Close)}, nil
}

// Enqueue appends v. It fails with ErrValueRange if v exceeds the
// representable range, ErrClosed after Close, and ErrOutOfMemory if the heap
// is exhausted (after the heap-pressure policy, if any, has run).
func (q *Queue) Enqueue(v Value) error {
	if q.closed.Load() {
		return ErrClosed
	}
	err := q.q.Enqueue(v)
	if err != nil {
		err = q.sys.retryPressure(err, func() error { return q.q.Enqueue(v) })
	}
	return err
}

// Dequeue removes and returns the oldest value; ok is false when the queue
// is observed empty or closed.
func (q *Queue) Dequeue() (v Value, ok bool) {
	if q.closed.Load() {
		return 0, false
	}
	return q.q.Dequeue()
}

// Stack is a GC-independent Treiber lock-free stack.
type Stack struct {
	s *stackrc.Stack
	handle
}

// NewStack creates an empty stack on this system.
func (s *System) NewStack() (*Stack, error) {
	ts, err := s.stackTypes.get(s.heap, stackrc.RegisterTypes)
	if err != nil {
		return nil, err
	}
	var st *stackrc.Stack
	if err := s.withPressure(func() error {
		var err error
		st, err = stackrc.New(s.rc, ts)
		return err
	}); err != nil {
		return nil, err
	}
	return &Stack{s: st, handle: s.newHandle(st.Anchor(), "stack", st.Close)}, nil
}

// Push places v on top of the stack. It fails with ErrValueRange if v
// exceeds MaxValue, ErrClosed after Close, and ErrOutOfMemory if the heap is
// exhausted (after the heap-pressure policy, if any, has run).
func (s *Stack) Push(v Value) error {
	if s.closed.Load() {
		return ErrClosed
	}
	err := s.s.Push(v)
	if err != nil {
		err = s.sys.retryPressure(err, func() error { return s.s.Push(v) })
	}
	return err
}

// Pop removes and returns the top value; ok is false when the stack is
// observed empty or closed.
func (s *Stack) Pop() (v Value, ok bool) {
	if s.closed.Load() {
		return 0, false
	}
	return s.s.Pop()
}
