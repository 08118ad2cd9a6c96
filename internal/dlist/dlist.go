// Package dlist implements a lock-free sorted linked-list set built
// directly on the LFRC operations, demonstrating the methodology on a
// structure the paper did not transform (§2.1: "the set of operations ...
// seems to be sufficient to support a wide range of concurrent data
// structure implementations").
//
// The algorithm is a DCAS flavour of the marked-node sorted list: each node
// carries a scalar "dead" cell next to its key.
//
//   - Delete first marks the victim dead with a single CAS on the dead cell
//     (the linearization point), then attempts the physical unlink.
//   - Every structural update — inserting after a node or unlinking its
//     successor — is a DCASMixed on (pred.next, pred.dead) that verifies the
//     predecessor is still undead, so no update ever hangs new nodes off a
//     physically removed predecessor. This is where DCAS replaces the
//     pointer-mark bit-stealing of CAS-only designs (Harris 2001): the mark
//     lives in its own cell, and DCAS reads it atomically with the pointer
//     update.
//   - Traversals help unlink the first marked node they meet and restart.
//
// Traversals are counted hand-over-hand: a search holds counted references
// to pred and curr, and each hop hands curr's count to pred. The paper's
// Step 5 would write pred = curr as an LFRCCopy (count curr again) and the
// following Load would Destroy curr's old value (uncount it again); that
// +1/-1 pair on one node cancels, so it is dropped. The next cell is still
// read only from a node whose count the traversal holds, and a hop costs two
// count updates instead of four. The Snark deque, the paper-faithful
// reproduction, keeps the mechanical Step-5 form.
//
// Garbage is acyclic (nodes point only forward), so the methodology's
// Cycle-Free Garbage criterion holds with no extra work, and unlinked nodes
// are reclaimed by their reference counts as the last traverser lets go.
package dlist

import (
	"fmt"

	"lfrc/internal/core"
	"lfrc/internal/fault"
	"lfrc/internal/mem"
)

// Key is a set element. Keys must be at most mem.ValueMask.
type Key = uint64

// Node field indices.
const (
	fNext = 0 // next node (pointer)
	fKey  = 1 // key (scalar)
	fDead = 2 // deletion mark (scalar: 0 live, 1 dead)
)

// Types holds the heap type ids the list uses; register once per heap.
type Types struct {
	Node   mem.TypeID
	Anchor mem.TypeID
}

// RegisterTypes registers the list's node and anchor types on h.
func RegisterTypes(h *mem.Heap) (Types, error) {
	node, err := h.RegisterType(mem.TypeDesc{
		Name:      "dlist.Node",
		NumFields: 3,
		PtrFields: []int{fNext},
	})
	if err != nil {
		return Types{}, fmt.Errorf("dlist: register node: %w", err)
	}
	anchor, err := h.RegisterType(mem.TypeDesc{
		Name:      "dlist.Anchor",
		NumFields: 1,
		PtrFields: []int{0},
	})
	if err != nil {
		return Types{}, fmt.Errorf("dlist: register anchor: %w", err)
	}
	return Types{Node: node, Anchor: anchor}, nil
}

// MustRegisterTypes is RegisterTypes for static setup; it panics on error.
func MustRegisterTypes(h *mem.Heap) Types {
	ts, err := RegisterTypes(h)
	if err != nil {
		panic(err)
	}
	return ts
}

// List is a GC-independent lock-free sorted set.
type List struct {
	rc *core.RC
	h  *mem.Heap
	ts Types
	fj *fault.Injector // rc's fault injector, cached; nil means disabled

	anchor mem.Ref
	headA  mem.Addr
	closed bool
}

// New builds an empty set.
func New(rc *core.RC, ts Types) (*List, error) {
	l := &List{rc: rc, h: rc.Heap(), ts: ts, fj: rc.Fault()}
	anchor, err := rc.NewObject(ts.Anchor)
	if err != nil {
		return nil, fmt.Errorf("dlist: allocate anchor: %w", err)
	}
	l.anchor = anchor
	l.headA = l.h.FieldAddr(anchor, 0)
	return l, nil
}

// Anchor returns the list's anchor object for collector rooting. It is 0
// after Close.
func (l *List) Anchor() mem.Ref { return l.anchor }

func (l *List) nextA(n mem.Ref) mem.Addr { return l.h.FieldAddr(n, fNext) }
func (l *List) keyA(n mem.Ref) mem.Addr  { return l.h.FieldAddr(n, fKey) }
func (l *List) deadA(n mem.Ref) mem.Addr { return l.h.FieldAddr(n, fDead) }

// search walks the list to the first node with key >= k, helping to unlink
// any marked node it meets (and restarting afterwards). It returns counted
// references (pred, curr); pred is 0 when curr is the first node. The caller
// must Destroy both.
func (l *List) search(k Key) (pred, curr mem.Ref) {
	for {
		l.rc.Destroy(pred, curr)
		pred, curr = 0, 0
		l.rc.Load(l.headA, &curr)
		helping := false
		for curr != 0 {
			if l.rc.WordLoad(l.deadA(curr)) != 0 {
				// Help unlink the first marked node, then restart.
				var next mem.Ref
				l.rc.Load(l.nextA(curr), &next)
				if pred == 0 {
					l.rc.CAS(l.headA, curr, next)
				} else {
					l.rc.DCASMixed(l.nextA(pred), curr, next, l.deadA(pred), 0, 0)
				}
				l.rc.Destroy(next)
				helping = true
				break
			}
			if l.rc.WordLoad(l.keyA(curr)) >= k {
				return pred, curr
			}
			// Hand-off (see the package doc): pred inherits curr's count
			// instead of taking a fresh one (Copy). The successor is read
			// through curr, whose count the traversal holds, into pred's
			// variable, and that Load drops pred's old count, so a hop is
			// one LFRC call; the swap then hands curr's count to pred.
			l.rc.Load(l.nextA(curr), &pred)
			pred, curr = curr, pred
		}
		if !helping {
			return pred, curr // curr == 0: ran off the end
		}
	}
}

// Insert adds k to the set. It returns false (with no error) if k was
// already present.
func (l *List) Insert(k Key) (bool, error) {
	if k > mem.ValueMask {
		return false, fmt.Errorf("dlist: %w: %#x", mem.ErrValueRange, k)
	}
	n, err := l.rc.NewObject(l.ts.Node)
	if err != nil {
		return false, fmt.Errorf("dlist: %w", err)
	}
	l.rc.WordStore(l.keyA(n), k)

	for {
		pred, curr := l.search(k)
		if curr != 0 && l.rc.WordLoad(l.keyA(curr)) == k && l.rc.WordLoad(l.deadA(curr)) == 0 {
			l.rc.Destroy(pred, curr, n)
			return false, nil
		}
		l.rc.Store(l.nextA(n), curr)
		// Injected failure lands between the search and the link attempt;
		// the counted (pred, curr) pair must be released before retrying.
		if l.fj.Inject(fault.SetInsert) {
			l.rc.Destroy(pred, curr)
			continue
		}
		var ok bool
		if pred == 0 {
			ok = l.rc.CAS(l.headA, curr, n)
		} else {
			ok = l.rc.DCASMixed(l.nextA(pred), curr, n, l.deadA(pred), 0, 0)
		}
		l.rc.Destroy(pred, curr)
		if ok {
			l.rc.Destroy(n)
			return true, nil
		}
	}
}

// Delete removes k from the set, returning whether this call removed it.
func (l *List) Delete(k Key) bool {
	for {
		pred, curr := l.search(k)
		if curr == 0 || l.rc.WordLoad(l.keyA(curr)) != k {
			l.rc.Destroy(pred, curr)
			return false
		}
		if l.fj.Inject(fault.SetDelete) {
			l.rc.Destroy(pred, curr)
			continue
		}
		if !l.rc.WordCAS(l.deadA(curr), 0, 1) {
			// Another deleter marked it first; retry — a fresh live
			// duplicate may have been inserted before the corpse is
			// unlinked.
			l.rc.Destroy(pred, curr)
			continue
		}
		// Logical delete done (the linearization point); attempt the
		// physical unlink and let traversals finish it if we fail.
		var next mem.Ref
		l.rc.Load(l.nextA(curr), &next)
		if pred == 0 {
			l.rc.CAS(l.headA, curr, next)
		} else {
			l.rc.DCASMixed(l.nextA(pred), curr, next, l.deadA(pred), 0, 0)
		}
		l.rc.Destroy(pred, curr, next)
		return true
	}
}

// PopMin removes and returns the smallest element, giving the sorted list
// priority-queue semantics; ok is false when the set is observed empty.
func (l *List) PopMin() (k Key, ok bool) {
	for {
		pred, curr := l.search(0) // first live node
		if curr == 0 {
			l.rc.Destroy(pred, curr)
			return 0, false
		}
		key := l.rc.WordLoad(l.keyA(curr))
		if l.fj.Inject(fault.SetPopMin) {
			l.rc.Destroy(pred, curr)
			continue
		}
		if !l.rc.WordCAS(l.deadA(curr), 0, 1) {
			// Lost the claim to a deleter; retry from a fresh search.
			l.rc.Destroy(pred, curr)
			continue
		}
		var next mem.Ref
		l.rc.Load(l.nextA(curr), &next)
		if pred == 0 {
			l.rc.CAS(l.headA, curr, next)
		} else {
			l.rc.DCASMixed(l.nextA(pred), curr, next, l.deadA(pred), 0, 0)
		}
		l.rc.Destroy(pred, curr, next)
		return key, true
	}
}

// Contains reports whether k is in the set.
func (l *List) Contains(k Key) bool {
	pred, curr := l.search(k)
	found := curr != 0 &&
		l.rc.WordLoad(l.keyA(curr)) == k &&
		l.rc.WordLoad(l.deadA(curr)) == 0
	l.rc.Destroy(pred, curr)
	return found
}

// Len counts the live elements. Exact at quiescence; a snapshot otherwise.
func (l *List) Len() int {
	n := 0
	var curr mem.Ref
	l.rc.Load(l.headA, &curr)
	for curr != 0 {
		if l.rc.WordLoad(l.deadA(curr)) == 0 {
			n++
		}
		l.rc.Load(l.nextA(curr), &curr)
	}
	l.rc.Destroy(curr)
	return n
}

// Range walks the live elements in ascending order, calling yield for each
// until it returns false. The traversal holds a counted reference to the node
// it stands on — and releases it even on early exit — so concurrent deleters
// can never free the ground under it. Exact at quiescence; a snapshot
// otherwise.
func (l *List) Range(yield func(Key) bool) {
	var curr mem.Ref
	l.rc.Load(l.headA, &curr)
	for curr != 0 {
		if l.rc.WordLoad(l.deadA(curr)) == 0 {
			if !yield(l.rc.WordLoad(l.keyA(curr))) {
				break
			}
		}
		l.rc.Load(l.nextA(curr), &curr)
	}
	l.rc.Destroy(curr)
}

// Keys returns the live elements in ascending order. Exact at quiescence.
func (l *List) Keys() []Key {
	var out []Key
	l.Range(func(k Key) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Close releases the whole list. Must not run concurrently with other
// operations.
func (l *List) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.rc.Store(l.headA, 0) // cascades through the chain
	l.rc.Destroy(l.anchor)
	l.anchor = 0
}
