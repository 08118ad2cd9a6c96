// Package mem implements the simulated shared heap on which the LFRC
// reproduction runs.
//
// The PODC 2001 paper assumes a C++-style environment with explicit new and
// delete and no garbage collector: freed memory really is recycled, so a
// use-after-free corrupts whatever object now occupies the slot. Go's runtime
// GC would silently mask exactly the bugs (premature free, ABA) that LFRC
// exists to prevent, so this package provides a manual heap instead:
//
//   - The heap is a segmented arena of 64-bit word cells addressed by 32-bit
//     word indices (Addr). Address 0 is the null reference.
//   - Objects are typed, fixed-size records of cells: a three-word header
//     (packed metadata, reference count, aux/free-link) followed by the
//     payload fields declared by a TypeDesc.
//   - Every slot is a whole number of 64-byte cache lines (LineWords words)
//     and starts on a line, so no two objects share a line: a hot count or
//     pointer cell never drags a neighbouring object's cells along with it.
//     The header records the slot size, and that is the footprint
//     WalkBlocks, the live-word statistics and the census report.
//   - Allocation is lock-free and sharded: each shard owns one free list
//     per slot size (Treiber stacks whose head words pack an index and a pop
//     counter to defeat ABA) and a private bump chunk claimed from the arena
//     one slab at a time, so the hot path never contends on a global head
//     or cursor. Shards overflow surplus freed slots to a global list and
//     refill from it, and a local miss still recycles — global list, then
//     sibling shards — before carving new arena words.
//   - Free poisons the reference-count cell and the rest of the slot and
//     sets a freed bit. Alloc verifies the poison is intact; a damaged
//     poison word means some thread wrote to freed memory — precisely the
//     corruption the paper's DCAS-based LFRCLoad prevents — and is counted
//     in Stats.
//
// All cell accesses are atomic. Every value stored in a cell that
// participates in CAS/DCAS must keep the top two bits clear; they are
// reserved as descriptor tags by the software-MCAS engine (package dcas).
package mem

import (
	"errors"
	"fmt"
)

// Addr is a 32-bit word index into the heap. Addr 0 is the null address; no
// cell is ever allocated there.
type Addr uint32

// Ref is an object reference: the address of the object's header word.
// A zero Ref is the null reference.
type Ref = Addr

// TypeID identifies a registered object type.
type TypeID uint16

const (
	// HeaderWords is the number of bookkeeping words that precede an
	// object's payload fields: the packed header, the reference count,
	// and the aux word (free-list link while the object is on a free
	// list; reserved otherwise).
	HeaderWords = 3

	// MaxFields is the maximum number of payload fields in a registered
	// type. Together with HeaderWords it bounds object size so that
	// per-size free lists can live in a small fixed table.
	MaxFields = 61

	// LineWords is the number of words in a 64-byte cache line. Every
	// slot is a whole number of lines and starts on a line.
	LineWords = 8

	// maxObjWords is the largest slot size in words.
	maxObjWords = HeaderWords + MaxFields

	// sizeClasses is the number of slot sizes, one per line count.
	sizeClasses = maxObjWords / LineWords

	// Poison is written into the rc cell and payload cells of freed
	// objects. Its top two bits are clear so that a racing engine
	// operation never mistakes it for an MCAS descriptor.
	Poison uint64 = 0x3ADE_ADBE_EF5C_0DED

	// ValueMask covers the bits a cell value may use. The two top bits
	// are reserved for descriptor tags by the dcas package.
	ValueMask uint64 = (1 << 62) - 1
)

// Header word layout (word 0 of every object):
//
//	bits  0..15  size of the slot in words, including the header
//	bits 16..29  TypeID (14 bits)
//	bit  30      freed flag
//	bits 31..61  allocation generation (31 bits, wraps)
//	bits 62..63  always zero (reserved for descriptor tags)
const (
	hdrSizeBits = 16
	hdrSizeMask = (1 << hdrSizeBits) - 1

	hdrTypeShift = 16
	hdrTypeBits  = 14
	hdrTypeMask  = (1 << hdrTypeBits) - 1

	hdrFreedBit = 1 << 30

	hdrGenShift = 31
	hdrGenBits  = 31
	hdrGenMask  = (1 << hdrGenBits) - 1
)

// maxTypes bounds the number of registrable types (14-bit TypeID).
const maxTypes = 1 << hdrTypeBits

// Errors returned by heap operations.
var (
	// ErrOutOfMemory is returned by Alloc when the arena limit is reached
	// and the relevant free list is empty.
	ErrOutOfMemory = errors.New("mem: arena exhausted")

	// ErrDoubleFree is returned by Free when the object is already freed.
	ErrDoubleFree = errors.New("mem: double free")

	// ErrBadRef is returned when a reference does not name an allocated
	// object.
	ErrBadRef = errors.New("mem: bad reference")

	// ErrTooManyTypes is returned by RegisterType when the type table is
	// full.
	ErrTooManyTypes = errors.New("mem: type table full")

	// ErrBadType is returned for malformed type descriptors or unknown
	// type ids.
	ErrBadType = errors.New("mem: bad type descriptor")

	// ErrValueRange is the shared sentinel wrapped by every structure
	// package when a caller's value does not fit in a cell (bits 62..63
	// are reserved for descriptor tags). It lives here, beside ValueMask,
	// so the collections and the root package agree on one identity.
	ErrValueRange = errors.New("value out of range")
)

// packHeader builds a header word.
func packHeader(size int, t TypeID, freed bool, gen uint32) uint64 {
	h := uint64(size&hdrSizeMask) |
		uint64(t&hdrTypeMask)<<hdrTypeShift |
		uint64(gen&hdrGenMask)<<hdrGenShift
	if freed {
		h |= hdrFreedBit
	}
	return h
}

// headerSize extracts the object size in words.
func headerSize(h uint64) int { return int(h & hdrSizeMask) }

// headerType extracts the TypeID.
func headerType(h uint64) TypeID { return TypeID((h >> hdrTypeShift) & hdrTypeMask) }

// headerFreed reports whether the freed bit is set.
func headerFreed(h uint64) bool { return h&hdrFreedBit != 0 }

// headerGen extracts the allocation generation.
func headerGen(h uint64) uint32 { return uint32((h >> hdrGenShift) & hdrGenMask) }

// TypeDesc describes an object type: a fixed number of single-word payload
// fields, some of which hold references (Addr values) to other objects.
// Pointer fields are what LFRCDestroy recurses through and what the tracing
// collector follows.
type TypeDesc struct {
	// Name is a diagnostic label.
	Name string

	// NumFields is the number of payload words.
	NumFields int

	// PtrFields lists the payload field indices (0-based) that hold
	// object references. Indices must be strictly increasing and within
	// [0, NumFields).
	PtrFields []int
}

// validate checks the descriptor's internal consistency.
func (d TypeDesc) validate() error {
	if d.NumFields < 0 || d.NumFields > MaxFields {
		return fmt.Errorf("%w: %q has %d fields (max %d)", ErrBadType, d.Name, d.NumFields, MaxFields)
	}
	prev := -1
	for _, f := range d.PtrFields {
		if f <= prev || f >= d.NumFields {
			return fmt.Errorf("%w: %q pointer field %d out of order or range", ErrBadType, d.Name, f)
		}
		prev = f
	}
	return nil
}

// size returns the slot size in words: the header and payload rounded up to
// whole cache lines.
func (d TypeDesc) size() int {
	return (HeaderWords + d.NumFields + LineWords - 1) &^ (LineWords - 1)
}

// class returns the free-list index of a slot size.
func class(size int) int { return size/LineWords - 1 }
