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

// TestOptionsValidate: invalid options fail at configuration time, at both
// construction and reset, instead of at Run; a shard-safe recorder next to
// shards is valid.
func TestOptionsValidate(t *testing.T) {
	bad := Options{Shards: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := NewWithOptions(optTopo(4), bad); err == nil {
		t.Error("NewWithOptions accepted a negative shard count")
	}
	if err := New(optTopo(4)).ResetWithOptions(optTopo(4), bad); err == nil {
		t.Error("ResetWithOptions accepted a negative shard count")
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
	if sim.obs != rec || sim.nshards != 4 {
		t.Fatalf("NewWithOptions: obs=%p shards=%d, want %p, 4", sim.obs, sim.nshards, rec)
	}
	if err := sim.ResetWithOptions(optTopo(4), Options{}); err != nil {
		t.Fatal(err)
	}
	if sim.obs != nil || sim.nshards != 1 {
		t.Errorf("after ResetWithOptions(zero): obs=%p shards=%d, want clean serial", sim.obs, sim.nshards)
	}
}
