package workload

import (
	"sync/atomic"

	"lfrc"
)

// current is the most recent System a workload experiment built and finished
// with; cmd/lfrcbench's -stats-json and -metrics flags read it. Stored
// atomically because the metrics mux reads it from HTTP handler goroutines
// while experiments swap it.
var current atomic.Pointer[lfrc.System]

// SetCurrentSystem publishes s as the system observability surfaces report
// on. Experiments that build a System through the public API call this with
// their final (quiescent) system.
func SetCurrentSystem(s *lfrc.System) { current.Store(s) }

// CurrentSystem returns the last published system, or nil if no experiment
// has published one yet.
func CurrentSystem() *lfrc.System { return current.Load() }
