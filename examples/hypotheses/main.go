// Hypotheses: walk through the controlled-experiment harness end to end.
// A custom experiment is declared inline — baseline and treatment
// campaigns differing in exactly one dimension (the rank count), a metric,
// a predicted direction and a minimum effect — then executed across three
// workload seeds. The harness machine-checks the single-delta property by
// diffing the arms' content-key components, runs every arm twice (at
// different worker counts) to re-verify determinism, evaluates
// the standing invariants, and renders a confirm/refute verdict. The same
// machinery powers `cmd/hypoth` and the committed reports under
// hypotheses/.
package main

import (
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/hypothesis"
	"repro/internal/workload"
)

// arm builds one experiment arm: a 16³ LU campaign at the given rank
// count, with a mildly imbalanced workload for the seeds to act on.
func arm(name string, ranks int) campaign.Spec {
	g := config.GridSpec{Nx: 16, Ny: 16, Nz: 16}
	return campaign.Spec{
		Name:       name,
		Iterations: 1,
		Apps: []campaign.AppDim{{
			Preset: "lu", Grid: &g,
			Workload: &config.WorkloadSpec{Dist: workload.DistLognormal, Sigma: 0.1, Seed: 1},
		}},
		Machines: []campaign.MachineDim{{MachineSpec: config.MachineSpec{Preset: "xt4", CoresPerNode: 2}}},
		Ranks:    []int{ranks},
	}
}

func main() {
	exp := hypothesis.Experiment{
		ID:     "example-strong-scaling",
		Title:  "16 ranks beat 4 on a fixed 16³ grid",
		Family: "monotonicity",
		Hypothesis: "Quadrupling the rank count at a fixed problem size decreases simulated " +
			"runtime: per-rank compute shrinks 4×, and at this size communication cannot eat the gain.",
		Metric:    "sim_us",
		Direction: hypothesis.Decrease,
		MinEffect: 0.10,
		Seeds:     []uint64{42, 123, 456},
		Baseline:  arm("lu-p4", 4),
		Treatment: arm("lu-p16", 16),
	}

	// The single-delta check also runs inside Run; calling it directly
	// shows what the machine verifies: exactly one content-key component
	// differs between the paired runs of the two arms.
	delta, err := exp.CheckDelta(exp.Seeds[0], campaign.KeyMode{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("machine-checked delta: component %q\n", delta.Component)
	fmt.Printf("  baseline:  %s\n", delta.Baseline)
	fmt.Printf("  treatment: %s\n\n", delta.Treatment)

	rep, err := hypothesis.Run(exp, hypothesis.Config{Workers: 2})
	if err != nil {
		panic(err)
	}

	fmt.Printf("verdict: %s (median effect %+.1f%% across %d seeds)\n",
		rep.Verdict, rep.Effect.Median*100, rep.Effect.N)
	for _, s := range rep.PerSeed {
		fmt.Printf("  seed %3d: %8.1f µs → %8.1f µs  (%+.1f%%)\n",
			s.Seed, s.BaselineMean, s.TreatmentMean, s.Effect*100)
	}
	fmt.Println("\ninvariants (each arm executed twice, at different worker counts):")
	for _, inv := range rep.Invariants {
		fmt.Printf("  %-28s %s\n", inv.Name, inv.Status)
	}

	fmt.Println("\nfull report (the Markdown twin of hypotheses/<id>.md):")
	fmt.Println("---")
	if err := rep.WriteMarkdown(os.Stdout); err != nil {
		panic(err)
	}
}
