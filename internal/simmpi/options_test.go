package simmpi

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simnet"
)

func optTopo(ranks int) *simnet.Topology {
	m := machine.XT4()
	return simnet.NewTopology(m.Params, ranks, simnet.LinearPlacement(m))
}

// TestOptionsValidate: invalid options fail at configuration time — in
// NewWithOptions, ResetWithOptions and Simulate alike — instead of at Run.
func TestOptionsValidate(t *testing.T) {
	bad := Options{Shards: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewWithOptions(optTopo(4), bad); err == nil {
		t.Error("NewWithOptions accepted a negative shard count")
	}
	if err := new(Sim).ResetWithOptions(optTopo(4), bad); err == nil {
		t.Error("ResetWithOptions accepted a negative shard count")
	}
	if _, err := new(Sim).Simulate(optTopo(4), nil, bad); err == nil {
		t.Error("Simulate accepted a negative shard count")
	}
	for _, ok := range []Options{{}, {Shards: 1}, {Shards: 8}, {Obs: &obs.Recorder{Hist: true}, Shards: 8}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", ok, err)
		}
	}
}

// TestResetWithOptionsReplacesConfig: the Sim's configuration after
// ResetWithOptions is exactly the options passed; nothing carries over.
func TestResetWithOptionsReplacesConfig(t *testing.T) {
	rec := &obs.Recorder{Hist: true}
	sim, err := NewWithOptions(optTopo(4), Options{Obs: rec, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sim.obs != rec {
		t.Fatalf("NewWithOptions: obs=%p, want %p", sim.obs, rec)
	}
	if err := sim.ResetWithOptions(optTopo(4), Options{}); err != nil {
		t.Fatal(err)
	}
	if sim.obs != nil {
		t.Errorf("after ResetWithOptions(zero): obs=%p, want nil", sim.obs)
	}
}
