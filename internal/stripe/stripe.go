// Package stripe provides the striping hint shared by the heap's sharded
// allocator, the striped statistic counters and the MCAS descriptor pool.
//
// Go gives a goroutine no identity, but every running goroutine holds a P
// (one of GOMAXPROCS logical processors), and no two goroutines hold the same
// P at the same instant. ID returns the id of the caller's P, read the way
// sync.Pool finds its per-P slot: runtime.procPin, which go1.24's runtime
// keeps linkable on purpose (go.dev/issue/67401). Hint reduces that id to a
// stripe, and Of reduces an id already read. Stripe counts default to
// GOMAXPROCS, so clients running at once on different processors use
// different stripes and never share a cache line through them. A goroutine
// may migrate between Ps at any point, so the hint is a locality hint, never
// an ownership claim: any stripe may be touched by any goroutine.
package stripe

import _ "unsafe" // for go:linkname

// MaxStripes bounds stripe counts so padded counter arrays stay small.
const MaxStripes = 64

// Clamp normalizes a requested stripe count to [1, MaxStripes], mapping
// n <= 0 to fallback (itself clamped).
func Clamp(n, fallback int) int {
	if n <= 0 {
		n = fallback
	}
	if n < 1 {
		n = 1
	}
	if n > MaxStripes {
		n = MaxStripes
	}
	return n
}

//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// Hint returns the stripe in [0, n) of the P the caller runs on.
func Hint(n int) int {
	if n <= 1 {
		return 0
	}
	return Of(ID(), n)
}

// ID returns the id of the P the caller runs on. A caller that routes to
// several striped arrays at once reads it once and reduces it into each
// with Of, paying for one runtime call, which cannot be inlined, instead of
// one per array.
func ID() int {
	p := procPin()
	procUnpin()
	return p
}

// Of returns the stripe in [0, n) of P id p. The id is returned as is when
// it is below n (stripe counts default to GOMAXPROCS, so the hot path has
// no division) and reduced modulo n when GOMAXPROCS has grown past n.
func Of(p, n int) int {
	if p < n {
		return p
	}
	return p % n
}
