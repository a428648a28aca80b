package campaign

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/topo"
	"repro/internal/workload"
)

// componentSpec returns the base spec the mutation catalog perturbs: one
// app, one machine, one rank count.
func componentSpec() Spec {
	g := config.GridSpec{Nx: 16, Ny: 16, Nz: 16}
	return Spec{
		Name:     "components",
		Apps:     []AppDim{{Preset: "lu", Grid: &g}},
		Machines: []MachineDim{{MachineSpec: config.MachineSpec{Preset: "xt4", CoresPerNode: 2}}},
		Ranks:    []int{16},
	}
}

// firstRun expands the (possibly mutated) spec to its single run.
func firstRun(t *testing.T, mutate func(*Spec)) Run {
	t.Helper()
	s := componentSpec()
	if mutate != nil {
		mutate(&s)
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return runs[0]
}

// TestKeyComponentsMatchContentKey pins KeyComponents against ContentKey:
// for a catalog of single-dimension spec mutations, the content hash
// changes exactly when some component value changes, and the changed
// components are the expected ones. A field added to ContentKey but not to
// KeyComponents (or vice versa) breaks the equivalence here.
func TestKeyComponentsMatchContentKey(t *testing.T) {
	mode := KeyMode{}
	base := firstRun(t, nil)
	baseKey, _ := base.ContentKey(mode, nil)
	baseComps := base.KeyComponents(mode)

	if got := len(baseComps); got != len(ComponentNames()) {
		t.Fatalf("KeyComponents emits %d components, ComponentNames lists %d", got, len(ComponentNames()))
	}
	for i, name := range ComponentNames() {
		if baseComps[i].Name != name {
			t.Errorf("component %d is %q, want %q", i, baseComps[i].Name, name)
		}
	}

	cases := []struct {
		name   string
		mutate func(*Spec)
		want   []string // expected differing components
	}{
		{"identical spec", func(s *Spec) {}, nil},
		{"relabel machine (display only)", func(s *Spec) {
			s.Machines[0].Label = "renamed"
		}, nil},
		{"preset", func(s *Spec) {
			s.Apps[0].Preset = "sweep3d"
		}, []string{"app", "placement"}},
		{"grid", func(s *Spec) {
			s.Apps[0].Grid = &config.GridSpec{Nx: 20, Ny: 20, Nz: 20}
		}, []string{"app", "placement"}},
		// LU's boundary sizing ignores htile, so only the app component
		// moves; a transport code's htile also scales its boundary bytes
		// and would move "placement" too.
		{"htile", func(s *Spec) {
			s.Apps[0].Htile = 4
		}, []string{"app"}},
		{"iterations", func(s *Spec) {
			s.Iterations = 3
		}, []string{"app"}},
		{"convergence", func(s *Spec) {
			s.Apps[0].Convergence = &config.ConvergenceSpec{Bytes: 8, Alg: "ring"}
		}, []string{"collective"}},
		{"convergence alg", func(s *Spec) {
			s.Apps[0].Convergence = &config.ConvergenceSpec{Bytes: 8, Alg: "recdouble"}
		}, []string{"collective"}},
		{"workload sigma", func(s *Spec) {
			s.Apps[0].Workload = &config.WorkloadSpec{Dist: workload.DistLognormal, Sigma: 0.3, Seed: 1}
		}, []string{"workload"}},
		{"workload seed", func(s *Spec) {
			s.Apps[0].Workload = &config.WorkloadSpec{Dist: workload.DistLognormal, Sigma: 0.3, Seed: 2}
		}, []string{"workload"}},
		{"workload noise", func(s *Spec) {
			s.Apps[0].Workload = &config.WorkloadSpec{Noise: &workload.NoiseSpec{Rate: 1, AmpUS: 10}}
		}, []string{"workload"}},
		{"loggp override", func(s *Spec) {
			s.LogGP = []ParamOverride{{Name: "slow", Scale: map[string]float64{"L": 4}}}
		}, []string{"machine"}},
		{"cores per node", func(s *Spec) {
			s.Machines[0].CoresPerNode = 4
		}, []string{"node"}},
		{"bus groups", func(s *Spec) {
			s.Machines[0].BusGroups = 2
		}, []string{"node"}},
		{"interconnect", func(s *Spec) {
			s.Machines[0].Interconnect = &topo.Spec{Kind: topo.Torus2D}
		}, []string{"interconnect"}},
		{"ranks", func(s *Spec) {
			s.Ranks = []int{36}
		}, []string{"placement"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := firstRun(t, tc.mutate)
			key, _ := r.ContentKey(mode, nil)
			diff, err := DiffKeyComponents(baseComps, r.KeyComponents(mode))
			if err != nil {
				t.Fatalf("DiffKeyComponents: %v", err)
			}
			if fmt.Sprint(diff) != fmt.Sprint(tc.want) {
				t.Errorf("differing components = %v, want %v", diff, tc.want)
			}
			if (key != baseKey) != (len(diff) > 0) {
				t.Errorf("ContentKey changed=%v but components changed=%v — the two views drifted apart",
					key != baseKey, len(diff) > 0)
			}
		})
	}
}

// TestKeyComponentsModeBits: the execution-mode bits are their own
// component, and they change the content key exactly like any dimension.
func TestKeyComponentsModeBits(t *testing.T) {
	r := firstRun(t, nil)
	plain := r.KeyComponents(KeyMode{})
	hist := r.KeyComponents(KeyMode{Hist: true})
	diff, err := DiffKeyComponents(plain, hist)
	if err != nil {
		t.Fatalf("DiffKeyComponents: %v", err)
	}
	if fmt.Sprint(diff) != fmt.Sprint([]string{"mode"}) {
		t.Errorf("mode-bit diff = %v, want [mode]", diff)
	}
	k1, _ := r.ContentKey(KeyMode{}, nil)
	k2, _ := r.ContentKey(KeyMode{Hist: true}, nil)
	if k1 == k2 {
		t.Error("Hist mode bit did not change the content key")
	}
}

// TestDiffKeyComponentsShapeErrors: malformed pairings error instead of
// mis-diffing.
func TestDiffKeyComponentsShapeErrors(t *testing.T) {
	a := []KeyComponent{{Name: "app", Value: "x"}}
	if _, err := DiffKeyComponents(a, nil); err == nil {
		t.Error("length mismatch should error")
	}
	b := []KeyComponent{{Name: "machine", Value: "x"}}
	if _, err := DiffKeyComponents(a, b); err == nil {
		t.Error("name mismatch should error")
	}
}
