package lfrc_test

import (
	"errors"
	"flag"
	"strings"
	"testing"

	"lfrc"
)

// The pluggable seams — engine and RC strategy — share one
// parser contract: String and Parse are inverses over every valid value,
// flag.Value works out of the box, and a bad name yields the one shared
// error shape (ErrUnknownName, listing the valid spellings).

// seamValue abstracts one enum value for the table: its canonical name and
// a round-trip through the seam's Parse function.
type seamCase struct {
	seam  string
	name  string             // String() of a valid value
	parse func(string) error // parse + compare against the value
	flagv func() flag.Value  // fresh flag.Value for Set round-trip
}

func roundTripCases() []seamCase {
	mk := func(seam, name string, parse func(string) error, flagv func() flag.Value) seamCase {
		return seamCase{seam: seam, name: name, parse: parse, flagv: flagv}
	}
	return []seamCase{
		mk("engine", lfrc.EngineLocking.String(),
			func(s string) error {
				v, err := lfrc.ParseEngine(s)
				if err == nil && v != lfrc.EngineLocking {
					return errors.New("wrong value")
				}
				return err
			},
			func() flag.Value { v := new(lfrc.Engine); return v }),
		mk("engine", lfrc.EngineMCAS.String(),
			func(s string) error {
				v, err := lfrc.ParseEngine(s)
				if err == nil && v != lfrc.EngineMCAS {
					return errors.New("wrong value")
				}
				return err
			},
			func() flag.Value { v := new(lfrc.Engine); return v }),
		mk("rc strategy", lfrc.RCFigure2.String(),
			func(s string) error {
				v, err := lfrc.ParseRCStrategy(s)
				if err == nil && v != lfrc.RCFigure2 {
					return errors.New("wrong value")
				}
				return err
			},
			func() flag.Value { v := new(lfrc.RCStrategy); return v }),
		mk("rc strategy", lfrc.RCSplit.String(),
			func(s string) error {
				v, err := lfrc.ParseRCStrategy(s)
				if err == nil && v != lfrc.RCSplit {
					return errors.New("wrong value")
				}
				return err
			},
			func() flag.Value { v := new(lfrc.RCStrategy); return v }),
	}
}

func TestSeamStringParseRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases() {
		t.Run(tc.seam+"/"+tc.name, func(t *testing.T) {
			if err := tc.parse(tc.name); err != nil {
				t.Errorf("Parse(String()) round trip failed: %v", err)
			}
			// flag.Value Set must accept the same spelling and String it back.
			v := tc.flagv()
			if err := v.Set(tc.name); err != nil {
				t.Fatalf("Set(%q): %v", tc.name, err)
			}
			if got := v.String(); got != tc.name {
				t.Errorf("flag.Value String() = %q after Set(%q)", got, tc.name)
			}
		})
	}
}

func TestSeamParsersShareErrorShape(t *testing.T) {
	parsers := []struct {
		seam  string
		parse func(string) error
		names []string
	}{
		{"engine", func(s string) error { _, err := lfrc.ParseEngine(s); return err }, []string{"locking", "mcas"}},
		{"rc strategy", func(s string) error { _, err := lfrc.ParseRCStrategy(s); return err }, []string{"figure2", "split"}},
	}
	for _, p := range parsers {
		t.Run(p.seam, func(t *testing.T) {
			err := p.parse("bogus")
			if err == nil {
				t.Fatal("parser accepted a bogus name")
			}
			if !errors.Is(err, lfrc.ErrUnknownName) {
				t.Errorf("error %v does not wrap ErrUnknownName", err)
			}
			for _, n := range p.names {
				if !strings.Contains(err.Error(), `"`+n+`"`) {
					t.Errorf("error %q does not list valid name %q", err, n)
				}
			}
			if !strings.Contains(err.Error(), `"bogus"`) {
				t.Errorf("error %q does not echo the rejected input", err)
			}
		})
	}
}
