package hypothesis

import (
	"bytes"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// Config holds the execution knobs of a hypothesis run. Reports are
// byte-identical for every valid configuration: the simulator's event
// order, and therefore every output byte, is independent of the worker
// pool.
type Config struct {
	// Workers is the primary execution's worker-pool size; non-positive
	// means GOMAXPROCS.
	Workers int
}

// normalize resolves the two execution profiles: the primary one from the
// config, and a secondary one with a different worker count whose
// byte-identical output is the determinism invariant's evidence.
func (c Config) normalize() (primary, alt campaign.Config) {
	altWorkers := 1
	if c.Workers == 1 {
		altWorkers = 3
	}
	return campaign.Config{Workers: c.Workers}, campaign.Config{Workers: altWorkers}
}

// Run executes the experiment end to end: machine-checks the single-delta
// property at every seed, runs both arms under every seed twice (at
// different worker counts), evaluates the invariants over every
// arm, computes per-seed and aggregate effect sizes on the declared
// metric, and renders the verdict into a Report.
//
// Run returns an error only for malformed experiments or failed runs;
// invariant violations and refuted hypotheses are findings, recorded in
// the report, not errors.
func Run(e Experiment, cfg Config) (*Report, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	primary, alt := cfg.normalize()
	metric, err := metricExtractor(e.Metric)
	if err != nil {
		return nil, fmt.Errorf("hypothesis: %s: %w", e.ID, err)
	}
	invariants := e.Invariants
	if invariants == nil {
		invariants = DefaultInvariants()
	}

	rep := &Report{
		Schema:     SchemaVersion,
		ID:         e.ID,
		Title:      e.Title,
		Family:     e.Family,
		Hypothesis: e.Hypothesis,
		Metric:     e.Metric,
		Direction:  e.Direction,
		MinEffect:  e.MinEffect,
		Seeds:      append([]uint64(nil), e.Seeds...),
	}

	// The components are diffed under the same mode bits the runs are
	// keyed by.
	mode := campaign.KeyMode{}

	violations := map[string][]string{}
	var perSeed []float64
	for _, seed := range e.Seeds {
		delta, err := e.CheckDelta(seed, mode)
		if err != nil {
			return nil, err
		}
		if rep.Delta == (Delta{}) {
			rep.Delta = delta
		} else if rep.Delta.Component != delta.Component {
			return nil, fmt.Errorf("hypothesis: %s: delta component %q at seed %d disagrees with %q — the seed leaked into the delta",
				e.ID, delta.Component, seed, rep.Delta.Component)
		}

		base, err := executeArm("baseline", seed, withSeed(e.Baseline, seed), primary, alt)
		if err != nil {
			return nil, fmt.Errorf("hypothesis: %s: %w", e.ID, err)
		}
		treat, err := executeArm("treatment", seed, withSeed(e.Treatment, seed), primary, alt)
		if err != nil {
			return nil, fmt.Errorf("hypothesis: %s: %w", e.ID, err)
		}

		for _, arm := range []Arm{base, treat} {
			rep.Arms = append(rep.Arms, summarizeArm(arm))
			for _, inv := range invariants {
				violations[inv.Name()] = append(violations[inv.Name()], inv.Check(arm)...)
			}
		}

		bvals := make([]float64, len(base.Rows))
		tvals := make([]float64, len(treat.Rows))
		for i := range base.Rows {
			bvals[i] = metric(&base.Rows[i])
			tvals[i] = metric(&treat.Rows[i])
		}
		changes := stats.PairedRelChange(bvals, tvals)
		if changes == nil {
			return nil, fmt.Errorf("hypothesis: %s seed %d: arms produced %d vs %d rows", e.ID, seed, len(bvals), len(tvals))
		}
		eff := stats.Mean(changes)
		perSeed = append(perSeed, eff)
		rep.PerSeed = append(rep.PerSeed, SeedEffect{
			Seed:          seed,
			BaselineMean:  stats.Mean(bvals),
			TreatmentMean: stats.Mean(tvals),
			Effect:        eff,
		})
	}

	for _, inv := range invariants {
		rep.Invariants = append(rep.Invariants, InvariantResult{
			Name:       inv.Name(),
			Status:     statusOf(violations[inv.Name()]),
			Violations: violations[inv.Name()],
		})
	}

	rep.Effect = stats.EffectOf(perSeed)
	rep.Verdict = verdict(rep.Effect, e.Direction, e.MinEffect)
	return rep, nil
}

// executeArm runs one seed-substituted arm under both execution profiles
// and packages everything the invariants and the report need.
func executeArm(name string, seed uint64, spec campaign.Spec, primary, alt campaign.Config) (Arm, error) {
	rows, jsonl, err := executeOnce(spec, primary)
	if err != nil {
		return Arm{}, fmt.Errorf("%s arm, seed %d: %w", name, seed, err)
	}
	altRows, altJSONL, err := executeOnce(spec, alt)
	if err != nil {
		return Arm{}, fmt.Errorf("%s arm, seed %d (re-execution): %w", name, seed, err)
	}
	return Arm{
		Name: name, Seed: seed, Spec: spec,
		Rows: rows, JSONL: jsonl,
		AltRows: altRows, AltJSONL: altJSONL,
	}, nil
}

// executeOnce runs the spec under one execution profile and serializes the
// results the same way the campaign CLI does.
func executeOnce(spec campaign.Spec, cfg campaign.Config) ([]campaign.RunResult, []byte, error) {
	eng, err := campaign.NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	rows, err := eng.ExecuteSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := campaign.WriteJSONL(&buf, rows); err != nil {
		return nil, nil, err
	}
	return rows, buf.Bytes(), nil
}

// statusOf folds a violation list into a report status.
func statusOf(violations []string) string {
	if len(violations) == 0 {
		return "pass"
	}
	return "violated"
}

// verdict renders the three-way decision. Confirmed requires every seed to
// move in the predicted direction and the median effect to clear the
// declared threshold; Refuted is the symmetric condition on the opposite
// direction; anything weaker or mixed is Inconclusive.
func verdict(e stats.Effect, direction string, minEffect float64) string {
	sign := 1.0
	if direction == Decrease {
		sign = -1.0
	}
	abs := e.Median
	if abs < 0 {
		abs = -abs
	}
	switch {
	case e.Consistent(sign) && abs >= minEffect:
		return Confirmed
	case e.Consistent(-sign) && abs >= minEffect:
		return Refuted
	default:
		return Inconclusive
	}
}
