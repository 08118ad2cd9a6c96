package lfrc

import (
	"fmt"

	"lfrc/internal/core"
)

// RCStrategy selects the reference-count protocol behind every LFRC
// operation: how counts are represented, and which memory a Load must touch
// to secure a reference. Both strategies uphold the paper's two guarantees
// (no premature free, no leak of acyclic garbage); the choice trades
// paper-fidelity against contention on hot objects' count words. See
// DESIGN.md §3.14.
type RCStrategy int

// Reference-count strategies.
const (
	// RCFigure2 is the paper's protocol (Figure 2, PODC 2001): one count
	// per object, every Load guarded by a DCAS on the pointer cell and the
	// referent's count word together. It is the reproduction and the
	// ablation baseline, kept bit-for-bit identical to the pre-seam
	// implementation; select it with WithRCStrategy(RCFigure2).
	RCFigure2 RCStrategy = iota + 1

	// RCSplit is weighted reference counting: each link carries an
	// external count (a weight stash packed into the pointer word) while
	// the object's count word holds the total outstanding weight. Loads
	// borrow from the stash with a single-word CAS on the pointer cell
	// alone — the count word stays untouched on the read fast path, which
	// removes the figure2 protocol's rc DCAS hot spot. The count word is
	// only touched on link creation/destruction (merging a dying link's
	// remaining stash back in one update) and on the rare stash refill.
	// It is the default. An object's count is then a sum of link weights,
	// not an in-degree.
	RCSplit
)

// String implements fmt.Stringer.
func (r RCStrategy) String() string {
	switch r {
	case RCFigure2:
		return "figure2"
	case RCSplit:
		return "split"
	default:
		return fmt.Sprintf("RCStrategy(%d)", int(r))
	}
}

// ParseRCStrategy resolves a strategy name ("figure2" or "split", as printed
// by RCStrategy.String) to its RCStrategy value. It is the inverse of String
// and the canonical way for command-line tools to accept a -rc flag;
// RCStrategy also implements flag.Value, so flag.Var(&rc, "rc", ...) works
// directly.
func ParseRCStrategy(s string) (RCStrategy, error) {
	switch s {
	case "figure2":
		return RCFigure2, nil
	case "split":
		return RCSplit, nil
	default:
		return 0, unknownNameError("rc strategy", s, "figure2", "split")
	}
}

// Set implements flag.Value: together with String it lets an RCStrategy
// variable be bound straight to a command-line flag.
func (r *RCStrategy) Set(s string) error {
	v, err := ParseRCStrategy(s)
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// kind maps the public enum onto the internal strategy selector.
func (r RCStrategy) kind() core.StrategyKind {
	if r == RCSplit {
		return core.StrategySplit
	}
	return core.StrategyFigure2
}

// WithRCStrategy selects the reference-count strategy. The default is
// RCSplit, which keeps reads off hot objects' count words;
// WithRCStrategy(RCFigure2) runs the paper-faithful protocol. Both
// strategies run under the same structures, engines, reclaimer, fault
// points, lifecycle auditor and census, so they can be compared on
// identical workloads (experiment R3).
func WithRCStrategy(r RCStrategy) Option {
	return optionFunc(func(c *config) { c.rcStrategy = r })
}

// RCStrategyName reports which reference-count strategy the system runs on.
func (s *System) RCStrategyName() string { return s.rc.StrategyName() }
