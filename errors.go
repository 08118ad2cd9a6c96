package lfrc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"lfrc/internal/mem"
)

// Typed error sentinels. Every error the package returns either is one of
// these or wraps one, so callers branch with errors.Is rather than string
// matching:
//
//	if errors.Is(err, lfrc.ErrOutOfMemory) { shedLoad() }
var (
	// ErrOutOfMemory reports heap exhaustion: the arena limit
	// (WithMaxHeapWords) was reached and the free lists and deferred-
	// reclamation backlog had nothing to recycle. With a heap-pressure
	// policy installed (WithHeapPressurePolicy), operations surface it only
	// after the policy's bounded retry/backoff/drain cycle has run dry.
	ErrOutOfMemory = mem.ErrOutOfMemory

	// ErrValueRange reports a payload or key that does not fit in a cell:
	// values must be at most MaxValue.
	ErrValueRange = mem.ErrValueRange

	// ErrTooManyTypes reports that the heap's type table is full; it can
	// surface from the first constructor of a structure family, whose
	// lazy type registration overflowed the table.
	ErrTooManyTypes = mem.ErrTooManyTypes

	// ErrClosed reports an operation on a structure after its Close.
	ErrClosed = errors.New("lfrc: structure is closed")

	// ErrUnknownName reports a name that resolves to no value of one of the
	// pluggable seams: ParseEngine and ParseRCStrategy both wrap it
	// (listing the valid names), so flag plumbing and config loaders can
	// branch on bad selector input with a single errors.Is.
	ErrUnknownName = errors.New("lfrc: unknown")
)

// unknownNameError is the one error shape shared by every seam parser:
// what the name was supposed to select, what was given, and the full list
// of valid spellings — wrapped around ErrUnknownName.
func unknownNameError(what, got string, valid ...string) error {
	quoted := make([]string, len(valid))
	for i, v := range valid {
		quoted[i] = strconv.Quote(v)
	}
	return fmt.Errorf("%w %s %q (want %s)", ErrUnknownName, what, got, strings.Join(quoted, " or "))
}
