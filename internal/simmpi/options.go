package simmpi

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Options bundles every per-run configuration knob of a Sim — the flight
// recorder and the conservative-parallel shard count — so a simulation is
// configured in one place: Simulate (or ResetWithOptions) takes them with
// the topology of every run.
//
// The zero Options is the default serial, un-instrumented simulation.
type Options struct {
	// Obs attaches a flight recorder (internal/obs). A recorder is
	// shard-safe: sharded runs record per-rank spans from the owning
	// shards and merge histogram scratch single-threaded, so the recording
	// is deterministic for every shard count. Set its feature flags before
	// Run.
	Obs *obs.Recorder
	// Shards requests conservative parallel execution over that many
	// shards; 0 or 1 is the serial engine. Every sharded count (≥ 2)
	// yields bit-identical results (see parallel.go).
	Shards int
}

// Validate rejects options that cannot execute as requested. It is the
// single checkpoint: every way to a run goes through ResetWithOptions.
func (o Options) Validate() error {
	if o.Shards < 0 {
		return fmt.Errorf("simmpi: negative shard count %d", o.Shards)
	}
	return nil
}

// apply installs validated options on the Sim.
func (s *Sim) apply(o Options) {
	s.obs = o.Obs
	s.nshards = o.Shards
	if s.nshards < 1 {
		s.nshards = 1
	}
}

// NewWithOptions returns a Sim bound to the given topology with the options
// applied: new(Sim) followed by ResetWithOptions, so it runs exactly the
// code a reused Sim runs. The zero Sim is ready to use; prefer Simulate,
// which binds, installs the programs and runs in one call. Invalid options
// are rejected here rather than at Run.
func NewWithOptions(topo *simnet.Topology, o Options) (*Sim, error) {
	s := new(Sim)
	if err := s.ResetWithOptions(topo, o); err != nil {
		return nil, err
	}
	return s, nil
}

// ResetWithOptions binds the Sim — zero or previously run — to a (possibly
// different) topology for another run, retaining the capacity of every
// internal pool, and applies o in the same step: the Sim's configuration
// afterwards is exactly o. Programs are then assigned with SetProgram. The
// topology must itself be fresh or Reset (its buses start a new virtual
// time axis).
func (s *Sim) ResetWithOptions(topo *simnet.Topology, o Options) error {
	if err := o.Validate(); err != nil {
		return err
	}
	s.reset(topo)
	s.apply(o)
	return nil
}
