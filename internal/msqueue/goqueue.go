package msqueue

import "sync/atomic"

// GoQueue is the GC-dependent Michael–Scott queue on native Go objects:
// the form the methodology would start from. Go's GC supplies reclamation
// and ABA safety, so plain single-word CAS suffices throughout — the
// baseline for measuring what LFRC's counts cost.
type GoQueue struct {
	head atomic.Pointer[goNode]
	tail atomic.Pointer[goNode]
}

type goNode struct {
	next atomic.Pointer[goNode]
	v    Value
}

// NewGoQueue builds an empty GC-dependent queue.
func NewGoQueue() *GoQueue {
	q := &GoQueue{}
	dummy := &goNode{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Enqueue appends v at the tail.
func (q *GoQueue) Enqueue(v Value) {
	n := &goNode{v: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if next == nil {
			if tail.next.CompareAndSwap(nil, n) {
				q.tail.CompareAndSwap(tail, n)
				return
			}
		} else {
			q.tail.CompareAndSwap(tail, next)
		}
	}
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *GoQueue) Dequeue() (v Value, ok bool) {
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		next := head.next.Load()
		if head == tail {
			if next == nil {
				return 0, false
			}
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if next == nil {
			continue
		}
		value := next.v
		if q.head.CompareAndSwap(head, next) {
			return value, true
		}
	}
}
