package simmpi

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Options bundles the per-run configuration of a Sim, so a simulation is
// configured in one place: Simulate (or ResetWithOptions) takes them with
// the topology of every run.
//
// The zero Options is the default, un-instrumented simulation.
type Options struct {
	// Obs attaches a flight recorder (internal/obs). Set its feature
	// flags before Run.
	Obs *obs.Recorder
	// Shards is accepted and ignored: every run executes on one engine.
	// A negative value is still rejected.
	//
	// Deprecated: the sharded scheduler was retired; the 2-shard phase of
	// the frozen perfbench module is its last caller.
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

// ParallelStats always reports one shard and no lookahead windows or
// barrier stalls.
//
// Deprecated: the sharded scheduler was retired; the 2-shard phase of the
// frozen perfbench module is its last caller.
func (s *Sim) ParallelStats() (shards int, windows, stalls uint64) { return 1, 0, 0 }

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
	s.obs = o.Obs
	return nil
}
