package lfrc

import (
	"iter"

	"lfrc/internal/dlist"
)

// Set is a GC-independent lock-free sorted set over uint64 keys, built
// directly on the LFRC operations with a DCAS-based marked-node linked list
// (see internal/dlist). It demonstrates the methodology on a structure the
// paper did not itself transform, using the mixed pointer/scalar DCAS
// extension its §2.1 anticipates.
type Set struct {
	l *dlist.List
	handle
}

// NewSet creates an empty set on this system.
func (s *System) NewSet() (*Set, error) {
	ts, err := s.setTypes.get(s.heap, dlist.RegisterTypes)
	if err != nil {
		return nil, err
	}
	var l *dlist.List
	if err := s.withPressure(func() error {
		var err error
		l, err = dlist.New(s.rc, ts)
		return err
	}); err != nil {
		return nil, err
	}
	return &Set{l: l, handle: s.newHandle(l.Anchor(), "set", l.Close)}, nil
}

// Insert adds k to the set; it returns false (and no error) if k was already
// present. It fails with ErrValueRange if k exceeds MaxValue, ErrClosed
// after Close, and ErrOutOfMemory if the heap is exhausted (after the
// heap-pressure policy, if any, has run).
func (st *Set) Insert(k Value) (bool, error) {
	if st.closed.Load() {
		return false, ErrClosed
	}
	added, err := st.l.Insert(k)
	if err != nil {
		err = st.sys.retryPressure(err, func() error {
			var e error
			added, e = st.l.Insert(k)
			return e
		})
	}
	return added, err
}

// Delete removes k, returning whether this call removed it. A closed set
// holds nothing, so it returns false.
func (st *Set) Delete(k Value) bool {
	if st.closed.Load() {
		return false
	}
	return st.l.Delete(k)
}

// Contains reports whether k is in the set. A closed set contains nothing.
func (st *Set) Contains(k Value) bool {
	if st.closed.Load() {
		return false
	}
	return st.l.Contains(k)
}

// PopMin removes and returns the smallest element — the set doubles as a
// priority queue; ok is false when the set is observed empty or closed.
func (st *Set) PopMin() (k Value, ok bool) {
	if st.closed.Load() {
		return 0, false
	}
	return st.l.PopMin()
}

// Len counts the elements. Exact at quiescence; a snapshot otherwise. A
// closed set has none.
func (st *Set) Len() int {
	if st.closed.Load() {
		return 0
	}
	return st.l.Len()
}

// All returns an iterator over the elements in ascending order:
//
//	for k := range st.All() { use(k) }
//
// The traversal holds a counted reference to the node it stands on — and
// releases it even on early break — so concurrent deleters can never free
// the ground under it. The sequence is exact at quiescence and a consistent
// snapshot of the traversal path otherwise; it does not consume the set. A
// closed set yields nothing.
func (st *Set) All() iter.Seq[Value] {
	return func(yield func(Value) bool) {
		if st.closed.Load() {
			return
		}
		st.l.Range(yield)
	}
}

// Keys returns the elements in ascending order: it is All collected into a
// slice. Exact at quiescence.
func (st *Set) Keys() []Value {
	var out []Value
	for k := range st.All() {
		out = append(out, k)
	}
	return out
}
