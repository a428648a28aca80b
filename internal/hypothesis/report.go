package hypothesis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// SchemaVersion is the version of the hypothesis report JSON schema,
// carried by every report as "schema_version". The compatibility rule
// follows campaign.SchemaVersion: within a version, fields are only ever
// added.
const SchemaVersion = 1

// Report is the complete record of one executed experiment. Every field
// is deterministic — no wall-clock times, no host names — so regenerating
// a report with any worker count reproduces the committed file
// byte for byte.
type Report struct {
	Schema     int    `json:"schema_version"`
	ID         string `json:"id"`
	Title      string `json:"title"`
	Family     string `json:"family,omitempty"`
	Hypothesis string `json:"hypothesis"`

	Metric    string  `json:"metric"`
	Direction string  `json:"direction"`
	MinEffect float64 `json:"min_effect"`

	// Delta is the machine-verified single dimension the arms differ in.
	Delta Delta    `json:"delta"`
	Seeds []uint64 `json:"seeds"`

	// Arms summarises every executed arm (two per seed), including the
	// SHA-256 of its JSONL output — the fingerprint a reader can compare
	// against a fresh execution.
	Arms []ArmSummary `json:"arms"`

	// PerSeed holds one paired effect size per seed; Effect summarises
	// them and Verdict is the decision rendered from that summary.
	PerSeed []SeedEffect `json:"per_seed"`
	Effect  stats.Effect `json:"effect"`
	Verdict string       `json:"verdict"`

	// Invariants records every standing check's outcome over all arms.
	Invariants []InvariantResult `json:"invariants"`
}

// ArmSummary fingerprints one executed arm at one seed.
type ArmSummary struct {
	Arm    string `json:"arm"`
	Seed   uint64 `json:"seed"`
	Runs   int    `json:"runs"`
	SHA256 string `json:"sha256"`
}

// SeedEffect is the paired effect at one seed: the metric's mean over each
// arm's runs and the mean pairwise relative change.
type SeedEffect struct {
	Seed          uint64  `json:"seed"`
	BaselineMean  float64 `json:"baseline_mean"`
	TreatmentMean float64 `json:"treatment_mean"`
	Effect        float64 `json:"effect"`
}

// InvariantResult is one standing check's outcome across every arm.
type InvariantResult struct {
	Name       string   `json:"name"`
	Status     string   `json:"status"` // "pass" or "violated"
	Violations []string `json:"violations,omitempty"`
}

// summarizeArm fingerprints an executed arm for the report.
func summarizeArm(a Arm) ArmSummary {
	sum := sha256.Sum256(a.JSONL)
	return ArmSummary{Arm: a.Name, Seed: a.Seed, Runs: len(a.Rows), SHA256: hex.EncodeToString(sum[:])}
}

// InvariantsPass reports whether every standing check passed on every arm.
func (r *Report) InvariantsPass() bool {
	for _, inv := range r.Invariants {
		if inv.Status != "pass" {
			return false
		}
	}
	return true
}

// WriteJSON writes the report as indented JSON with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// pct renders an effect size as a signed percentage.
func pct(x float64) string { return fmt.Sprintf("%+.2f%%", x*100) }

// WriteMarkdown writes the report as a human-readable Markdown document.
// Like the JSON form it contains only deterministic content.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n", r.Title)
	fmt.Fprintf(&b, "**Verdict: %s**\n\n", r.Verdict)
	fmt.Fprintf(&b, "- ID: `%s`\n", r.ID)
	if r.Family != "" {
		fmt.Fprintf(&b, "- Family: %s\n", r.Family)
	}
	fmt.Fprintf(&b, "- Hypothesis: %s\n", r.Hypothesis)
	fmt.Fprintf(&b, "- Delta: `%s` — baseline `%s` → treatment `%s`\n",
		r.Delta.Component, truncate(r.Delta.Baseline, 80), truncate(r.Delta.Treatment, 80))
	fmt.Fprintf(&b, "- Metric: `%s`, predicted to %s by ≥ %s\n",
		r.Metric, r.Direction, pct(r.MinEffect))
	fmt.Fprintf(&b, "- Seeds: %s\n\n", joinSeeds(r.Seeds))

	b.WriteString("## Effect\n\n")
	fmt.Fprintf(&b, "Median %s across %d seeds (min %s, max %s).\n\n",
		pct(r.Effect.Median), r.Effect.N, pct(r.Effect.Min), pct(r.Effect.Max))
	b.WriteString("| seed | baseline mean | treatment mean | effect |\n")
	b.WriteString("|---:|---:|---:|---:|\n")
	for _, s := range r.PerSeed {
		fmt.Fprintf(&b, "| %d | %.4g | %.4g | %s |\n", s.Seed, s.BaselineMean, s.TreatmentMean, pct(s.Effect))
	}
	b.WriteString("\n")

	b.WriteString("## Invariants\n\n")
	b.WriteString("| invariant | status |\n")
	b.WriteString("|---|---|\n")
	for _, inv := range r.Invariants {
		fmt.Fprintf(&b, "| %s | %s |\n", inv.Name, inv.Status)
	}
	b.WriteString("\n")
	for _, inv := range r.Invariants {
		if len(inv.Violations) == 0 {
			continue
		}
		fmt.Fprintf(&b, "### %s violations\n\n", inv.Name)
		for _, v := range inv.Violations {
			fmt.Fprintf(&b, "- %s\n", v)
		}
		b.WriteString("\n")
	}

	b.WriteString("## Arms\n\n")
	b.WriteString("| arm | seed | runs | jsonl sha256 |\n")
	b.WriteString("|---|---:|---:|---|\n")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "| %s | %d | %d | `%s` |\n", a.Arm, a.Seed, a.Runs, a.SHA256[:16])
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteIndex writes the suite-level Markdown index over a set of reports,
// in the order given.
func WriteIndex(w io.Writer, reports []*Report) error {
	var b strings.Builder
	b.WriteString("# Hypotheses\n\n")
	b.WriteString("Controlled experiments over the campaign engine: each report pairs a\n")
	b.WriteString("baseline campaign with a treatment differing in exactly one\n")
	b.WriteString("machine-checked dimension, runs both arms across multiple workload\n")
	b.WriteString("seeds (twice each, at different worker counts), checks the\n")
	b.WriteString("standing invariants, and renders a confirm/refute verdict.\n")
	b.WriteString("Regenerate with `go run ./cmd/hypoth -all -out hypotheses` — the\n")
	b.WriteString("files are byte-identical for any `-workers` setting.\n\n")
	b.WriteString("| id | title | delta | metric | verdict | median effect | invariants |\n")
	b.WriteString("|---|---|---|---|---|---:|---|\n")
	for _, r := range reports {
		inv := "pass"
		if !r.InvariantsPass() {
			inv = "violated"
		}
		fmt.Fprintf(&b, "| [`%s`](%s.md) | %s | %s | `%s` | %s | %s | %s |\n",
			r.ID, r.ID, r.Title, r.Delta.Component, r.Metric, r.Verdict, pct(r.Effect.Median), inv)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// truncate shortens long component values for the Markdown rendering.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// joinSeeds renders a seed list.
func joinSeeds(seeds []uint64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprint(s)
	}
	return strings.Join(parts, ", ")
}
