package campaign

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestWorkloadsBuiltin pins the load-imbalance sweep's contract: at least
// 500 runs, every one with a distinct coordinate key AND a distinct
// content key — a workload must never be able to serve another workload's
// cached result.
func TestWorkloadsBuiltin(t *testing.T) {
	s, ok := Builtin("workloads")
	if !ok {
		t.Fatal("builtin \"workloads\" missing")
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 500 {
		t.Fatalf("workloads has %d runs, want ≥ 500", len(runs))
	}
	seenKey := make(map[string]int, len(runs))
	seenContent := make(map[RunKey]string, len(runs))
	var scratch []byte
	withWorkload := 0
	for _, r := range runs {
		if prev, dup := seenKey[r.Key()]; dup {
			t.Fatalf("runs %d and %d share key %s", prev, r.Index, r.Key())
		}
		seenKey[r.Key()] = r.Index
		var k RunKey
		k, scratch = r.ContentKey(KeyMode{}, scratch)
		if prev, dup := seenContent[k]; dup {
			t.Fatalf("runs %q and %q share a content key", prev, r.Key())
		}
		seenContent[k] = r.Key()
		if r.Workload != "" {
			withWorkload++
		}
	}
	// 14 of 15 variants carry a workload.
	if want := len(runs) * 14 / 15; withWorkload != want {
		t.Errorf("%d runs carry a workload, want %d", withWorkload, want)
	}
}

const workloadSpecJSON = `{
  "name": "wl-mini",
  "iterations": 1,
  "apps": [
    {"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12},
     "workload": {"dist": "lognormal", "sigma": 0.4, "seed": 7,
                  "noise": {"rate": 0.5, "amp_us": 25}}},
    {"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12},
     "workload": {"dist": "hotspot", "hot_frac": 0.25, "hot_mul": 3, "seed": 1}}
  ],
  "machines": [{"preset": "xt4", "cores_per_node": 2}],
  "ranks": [4, 16]
}`

// TestWorkloadDeterministicAcrossWorkers extends the byte-identical-JSONL
// contract to workload-perturbed campaigns: the workload is a pure hash of
// run coordinates, so worker scheduling cannot leak into the sampled
// imbalance.
func TestWorkloadDeterministicAcrossWorkers(t *testing.T) {
	s, err := ParseSpec([]byte(workloadSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(workers int) []byte {
		res, err := newEngine(t, Config{Workers: workers}).Execute(runs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	if !strings.Contains(string(serial), `"workload":"lognormal(σ=0.4,seed=7)+noise(0.5×25µs)"`) {
		t.Error("JSONL rows do not carry the workload label")
	}
	if par := encode(8); !bytes.Equal(serial, par) {
		t.Error("workers=8 produced different JSONL bytes than workers=1")
	}
}

// TestWorkloadDeterministicAcrossShards: a workload-perturbed spec emits
// the same JSONL bytes whatever its deprecated shard count (the contract
// TestDeterministicAcrossShardCounts pins for unperturbed runs).
func TestWorkloadDeterministicAcrossShards(t *testing.T) {
	s, err := ParseSpec([]byte(workloadSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	encode := func(shards int) []byte {
		sh := s
		sh.Shards = shards
		runs, err := sh.Expand()
		if err != nil {
			t.Fatal(err)
		}
		res, err := newEngine(t, Config{Workers: 2}).Execute(runs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := encode(2)
	if got := encode(4); !bytes.Equal(base, got) {
		t.Error("shards=4 produced different JSONL bytes than shards=2")
	}
}

// TestUniformWorkloadMatchesNone: attaching the identity workload (uniform,
// σ = 0) must not move a single bit of physics — the simulated time of the
// workload-carrying run equals the bare run's exactly.
func TestUniformWorkloadMatchesNone(t *testing.T) {
	s, err := ParseSpec([]byte(`{
	  "name": "wl-identity",
	  "apps": [
	    {"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12}},
	    {"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12},
	     "workload": {"dist": "uniform", "seed": 5}}
	  ],
	  "machines": [{"preset": "xt4", "cores_per_node": 2}],
	  "ranks": [16]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := newEngine(t, Config{Workers: 1}).ExecuteSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	bare, uniform := res[0], res[1]
	if bare.Workload != "" || uniform.Workload != "uniform" {
		t.Fatalf("workload labels = %q, %q; want \"\", \"uniform\"", bare.Workload, uniform.Workload)
	}
	if math.Float64bits(bare.SimMicros) != math.Float64bits(uniform.SimMicros) {
		t.Errorf("identity workload changed simulated time: %v != %v", uniform.SimMicros, bare.SimMicros)
	}
	if bare.Events != uniform.Events || bare.Messages != uniform.Messages {
		t.Error("identity workload changed event or message counts")
	}
}

func TestWorkloadConflicts(t *testing.T) {
	custom := &config.AppSpec{
		Name: "x",
		Grid: config.GridSpec{Nx: 8, Ny: 8, Nz: 8}, Wg: 0.5, Htile: 1,
		Corners: []string{"NW"}, Angles: 6, Iterations: 1,
		Workload: &config.WorkloadSpec{Dist: workload.DistNormal, Sigma: 0.2},
	}
	d := AppDim{
		Spec:     custom,
		Workload: &config.WorkloadSpec{Dist: workload.DistNormal, Sigma: 0.4},
	}
	if _, err := d.resolve(); err == nil {
		t.Error("double workload spec accepted")
	}

	bad := AppDim{
		Preset: "sweep3d",
		Grid:   &config.GridSpec{Nx: 8, Ny: 8, Nz: 8},
		Workload: &config.WorkloadSpec{
			Dist: "zipf",
		},
	}
	if _, err := bad.resolve(); err == nil {
		t.Error("unknown workload distribution accepted")
	}
}

// TestWorkloadFilter: the workload label is a filterable dimension, so CI
// can select e.g. only the lognormal slice of the workloads builtin.
func TestWorkloadFilter(t *testing.T) {
	s, err := ParseSpec([]byte(workloadSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFilter("workload=lognormal")
	if err != nil {
		t.Fatal(err)
	}
	kept := f.Apply(runs)
	if len(kept) != 2 {
		t.Fatalf("filter kept %d runs, want 2", len(kept))
	}
	for _, r := range kept {
		if !strings.Contains(r.Workload, "lognormal") {
			t.Errorf("filter kept run %s", r.Key())
		}
	}
}
