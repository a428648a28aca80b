// Package hypothesis turns campaigns into validated findings: controlled
// A/B experiments over the campaign engine with machine-checked deltas,
// multi-seed effect sizes, standing invariant checks, and auto-generated
// confirm/refute reports.
//
// The discipline (borrowed from the inference-sim hypothesis workflow) is:
//
//  1. Pose a behavioral hypothesis about the simulator or the analytic
//     model ("ring overtakes recursive doubling at large payloads").
//  2. Design a controlled experiment: a baseline campaign spec and a
//     treatment spec differing in exactly one dimension. The framework
//     machine-checks the single-delta property by expanding both arms and
//     diffing their runs' content-key components (campaign.KeyComponents)
//     pair by pair — a two-dimension experiment is rejected, because its
//     effect could not be attributed.
//  3. Run both arms across ≥ 3 workload seeds. Every arm executes twice,
//     at different worker counts, and the harness requires the
//     JSONL bytes to match — every hypothesis run doubles as a determinism
//     sweep.
//  4. Compute per-seed paired effect sizes on a declared metric and render
//     a verdict — Confirmed, Refuted or Inconclusive — against a declared
//     success criterion. A hypothesis is Confirmed only when every seed
//     agrees on the direction and the median effect clears the declared
//     threshold; it is Refuted only when every seed agrees on the
//     opposite direction just as strongly.
//  5. Run standing invariants (byte/event conservation, runtime
//     monotonicity, model-error sanity) over every arm's results, so each
//     experiment is also a property sweep over the simulator.
//
// Reports (JSON + Markdown, schema-versioned) contain only deterministic
// fields, so regenerating them with any worker count reproduces
// the committed artifacts byte for byte.
package hypothesis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/campaign"
)

// Verdict values a report can carry.
const (
	Confirmed    = "confirmed"
	Refuted      = "refuted"
	Inconclusive = "inconclusive"
)

// Direction values an experiment can predict for its metric.
const (
	Increase = "increase"
	Decrease = "decrease"
)

// Experiment is one controlled A/B question: a baseline campaign, a
// treatment campaign differing in exactly one content-key component, the
// metric the effect is measured on, and the success criterion the verdict
// is rendered against.
type Experiment struct {
	// ID is the experiment's stable identifier and report filename stem,
	// e.g. "ring-vs-recdouble-256k".
	ID string
	// Title is the one-line human name.
	Title string
	// Family classifies the hypothesis (crossover, accuracy-regime,
	// robustness, monotonicity, ...), following the inference-sim
	// taxonomy.
	Family string
	// Hypothesis is the prose prediction being tested.
	Hypothesis string

	// Metric names the campaign.RunResult field the effect is measured
	// on; see MetricValue for the accepted names.
	Metric string
	// Direction is the predicted sign of the treatment effect on Metric:
	// Increase or Decrease.
	Direction string
	// MinEffect is the minimum |median relative change| across seeds for
	// a Confirmed (or symmetric Refuted) verdict; anything smaller is
	// Inconclusive.
	MinEffect float64

	// Seeds are the workload seeds both arms run under (≥ 3). The
	// harness substitutes each seed into every workload-bearing app of
	// both arms, so a seed never differs between paired runs.
	Seeds []uint64

	// Baseline and Treatment are the two arms. They must expand to run
	// lists of equal length whose pairs differ in exactly one content-key
	// component — the declared delta.
	Baseline  campaign.Spec
	Treatment campaign.Spec

	// Invariants are the standing checks run over every arm; nil means
	// DefaultInvariants().
	Invariants []Invariant
}

// Delta describes the single dimension the two arms differ in, as
// rendered by campaign.KeyComponents.
type Delta struct {
	// Component is the differing content-key component name ("machine",
	// "collective", "workload", ...).
	Component string `json:"component"`
	// Baseline and Treatment are the component's rendered values in each
	// arm (from the first run pair).
	Baseline  string `json:"baseline"`
	Treatment string `json:"treatment"`
}

// Validate checks the experiment's declaration — everything that can be
// checked without expanding the arms. Expansion-level properties (the
// single-delta check) are verified by CheckDelta / Run.
func (e Experiment) Validate() error {
	if e.ID == "" {
		return fmt.Errorf("hypothesis: experiment needs an id")
	}
	if strings.ContainsAny(e.ID, " /\\") {
		return fmt.Errorf("hypothesis: id %q must be a filename stem (no spaces or slashes)", e.ID)
	}
	if e.Title == "" || e.Hypothesis == "" {
		return fmt.Errorf("hypothesis: %s needs a title and a hypothesis statement", e.ID)
	}
	if _, err := metricExtractor(e.Metric); err != nil {
		return fmt.Errorf("hypothesis: %s: %w", e.ID, err)
	}
	if e.Direction != Increase && e.Direction != Decrease {
		return fmt.Errorf("hypothesis: %s direction %q (want %q or %q)", e.ID, e.Direction, Increase, Decrease)
	}
	if e.MinEffect < 0 {
		return fmt.Errorf("hypothesis: %s has negative min effect %v", e.ID, e.MinEffect)
	}
	if len(e.Seeds) < 3 {
		return fmt.Errorf("hypothesis: %s has %d seeds — controlled experiments need at least 3", e.ID, len(e.Seeds))
	}
	seen := map[uint64]bool{}
	for _, s := range e.Seeds {
		if seen[s] {
			return fmt.Errorf("hypothesis: %s lists seed %d twice", e.ID, s)
		}
		seen[s] = true
	}
	if !hasWorkload(e.Baseline) && !hasWorkload(e.Treatment) {
		return fmt.Errorf("hypothesis: %s has no workload-bearing app in either arm — the seeds would be inert", e.ID)
	}
	if err := e.Baseline.Validate(); err != nil {
		return fmt.Errorf("hypothesis: %s baseline: %w", e.ID, err)
	}
	if err := e.Treatment.Validate(); err != nil {
		return fmt.Errorf("hypothesis: %s treatment: %w", e.ID, err)
	}
	return nil
}

// hasWorkload reports whether any app dimension of the spec carries a
// workload the seed substitution can act on.
func hasWorkload(s campaign.Spec) bool {
	for _, a := range s.Apps {
		if a.Workload != nil {
			return true
		}
		if a.Spec != nil && a.Spec.Workload != nil {
			return true
		}
	}
	return false
}

// withSeed returns a copy of the spec with every workload's seed replaced,
// leaving the original untouched. Both arms pass through this with the
// same seed, so the seed can never be the inter-arm delta.
func withSeed(s campaign.Spec, seed uint64) campaign.Spec {
	apps := make([]campaign.AppDim, len(s.Apps))
	copy(apps, s.Apps)
	for i := range apps {
		if apps[i].Workload != nil {
			wl := *apps[i].Workload
			wl.Seed = seed
			apps[i].Workload = &wl
		}
		if apps[i].Spec != nil && apps[i].Spec.Workload != nil {
			sp := *apps[i].Spec
			wl := *sp.Workload
			wl.Seed = seed
			sp.Workload = &wl
			apps[i].Spec = &sp
		}
	}
	s.Apps = apps
	s.Name = fmt.Sprintf("%s/seed%d", s.Name, seed)
	return s
}

// CheckDelta expands both arms at the given seed and machine-checks the
// single-delta property: equal run counts, and every paired run differing
// in exactly one content-key component — the same component for all pairs.
// It returns the delta, or an error naming the offending pair and
// components (a two-dimension experiment is an error, as is a
// zero-dimension one: identical arms measure nothing).
func (e Experiment) CheckDelta(seed uint64, mode campaign.KeyMode) (Delta, error) {
	base, err := withSeed(e.Baseline, seed).Expand()
	if err != nil {
		return Delta{}, fmt.Errorf("hypothesis: %s baseline: %w", e.ID, err)
	}
	treat, err := withSeed(e.Treatment, seed).Expand()
	if err != nil {
		return Delta{}, fmt.Errorf("hypothesis: %s treatment: %w", e.ID, err)
	}
	if len(base) != len(treat) {
		return Delta{}, fmt.Errorf("hypothesis: %s arms expand to %d vs %d runs — arms must pair up run for run",
			e.ID, len(base), len(treat))
	}
	if len(base) == 0 {
		return Delta{}, fmt.Errorf("hypothesis: %s arms are empty", e.ID)
	}
	var delta Delta
	for i := range base {
		bc := base[i].KeyComponents(mode)
		tc := treat[i].KeyComponents(mode)
		diff, err := campaign.DiffKeyComponents(bc, tc)
		if err != nil {
			return Delta{}, fmt.Errorf("hypothesis: %s pair %d: %w", e.ID, i, err)
		}
		switch {
		case len(diff) == 0:
			return Delta{}, fmt.Errorf(
				"hypothesis: %s pair %d (%s) is identical in both arms — no dimension differs, nothing to attribute",
				e.ID, i, base[i].Key())
		case len(diff) > 1:
			return Delta{}, fmt.Errorf(
				"hypothesis: %s pair %d (%s) differs in %d dimensions (%s) — a controlled experiment changes exactly one",
				e.ID, i, base[i].Key(), len(diff), strings.Join(diff, ", "))
		}
		if i == 0 {
			delta = Delta{
				Component: diff[0],
				Baseline:  componentValue(bc, diff[0]),
				Treatment: componentValue(tc, diff[0]),
			}
		} else if diff[0] != delta.Component {
			return Delta{}, fmt.Errorf(
				"hypothesis: %s pairs disagree on the delta: pair 0 differs in %q, pair %d in %q",
				e.ID, delta.Component, i, diff[0])
		}
	}
	return delta, nil
}

// componentValue finds the named component's rendered value.
func componentValue(comps []campaign.KeyComponent, name string) string {
	for _, c := range comps {
		if c.Name == name {
			return c.Value
		}
	}
	return ""
}

// metricExtractor resolves a metric name to its RunResult accessor.
func metricExtractor(name string) (func(*campaign.RunResult) float64, error) {
	switch strings.ToLower(name) {
	case "sim_us":
		return func(r *campaign.RunResult) float64 { return r.SimMicros }, nil
	case "model_us":
		return func(r *campaign.RunResult) float64 { return r.ModelMicros }, nil
	case "abs_err":
		return func(r *campaign.RunResult) float64 { return r.AbsErr }, nil
	case "rel_err":
		return func(r *campaign.RunResult) float64 { return r.RelErr }, nil
	case "bus_wait_us":
		return func(r *campaign.RunResult) float64 { return r.BusWait }, nil
	case "link_wait_us":
		return func(r *campaign.RunResult) float64 { return r.LinkWait }, nil
	case "max_link_util":
		return func(r *campaign.RunResult) float64 { return r.MaxLinkUtil }, nil
	case "events":
		return func(r *campaign.RunResult) float64 { return float64(r.Events) }, nil
	case "messages":
		return func(r *campaign.RunResult) float64 { return float64(r.Messages) }, nil
	case "bytes_sent":
		return func(r *campaign.RunResult) float64 { return float64(r.BytesSent) }, nil
	}
	return nil, fmt.Errorf("unknown metric %q (want %s)", name, strings.Join(MetricNames(), ", "))
}

// MetricNames lists the metric names experiments may declare.
func MetricNames() []string {
	names := []string{"sim_us", "model_us", "abs_err", "rel_err", "bus_wait_us",
		"link_wait_us", "max_link_util", "events", "messages", "bytes_sent"}
	sort.Strings(names)
	return names
}

// MetricValue extracts the named metric from a run result; it errors only
// on an unknown name (every known metric is defined on every row — absent
// omitempty fields read as zero).
func MetricValue(name string, r campaign.RunResult) (float64, error) {
	get, err := metricExtractor(name)
	if err != nil {
		return 0, err
	}
	return get(&r), nil
}
