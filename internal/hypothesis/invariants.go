package hypothesis

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"repro/internal/campaign"
	"repro/internal/metrics"
)

// Arm is one executed experiment arm at one seed, as handed to invariants:
// the spec, the result rows, and the bytes of two independent executions
// at different worker counts. Invariants read it; they never
// re-execute anything.
type Arm struct {
	// Name is "baseline" or "treatment"; Seed is the workload seed.
	Name string
	Seed uint64
	// Spec is the seed-substituted campaign spec this arm executed.
	Spec campaign.Spec
	// Rows are the primary execution's results, in index order.
	Rows []campaign.RunResult
	// JSONL is the primary execution's serialized output.
	JSONL []byte
	// AltRows and AltJSONL come from the re-execution at a different
	// worker count; byte-equality against JSONL is the determinism
	// invariant.
	AltRows  []campaign.RunResult
	AltJSONL []byte
}

// label renders the arm's coordinates for violation messages.
func (a Arm) label() string { return fmt.Sprintf("%s arm, seed %d", a.Name, a.Seed) }

// Invariant is a standing property checked over every executed arm. A
// check returns violation descriptions (empty means the arm satisfies the
// property), so every hypothesis run doubles as a property sweep over the
// simulator — the bug-hunting net the ROADMAP asks for.
type Invariant interface {
	Name() string
	Check(arm Arm) []string
}

// DefaultInvariants returns the standing suite every experiment runs
// unless it declares its own: cross-execution determinism, byte and event
// conservation, runtime monotonicity in rank count and in link bandwidth
// (via the conventional fast-net/baseline/slow-net override ordering), and
// model-error sanity.
func DefaultInvariants() []Invariant {
	return []Invariant{
		Determinism{},
		ByteConservation{},
		EventConservation{},
		MonotoneInP{},
		MonotoneInOverride{Slowing: []string{"fast-net", "baseline", "slow-net"}},
		ErrorBandSanity{},
	}
}

// Determinism requires the two executions of an arm — run at different
// worker counts — to produce byte-identical JSONL. This is the
// campaign layer's core guarantee, re-verified on every hypothesis run.
type Determinism struct{}

// Name implements Invariant.
func (Determinism) Name() string { return "cross-worker-determinism" }

// Check implements Invariant.
func (Determinism) Check(arm Arm) []string {
	if bytes.Equal(arm.JSONL, arm.AltJSONL) {
		return nil
	}
	n := len(arm.Rows)
	for i := range arm.Rows {
		if i < len(arm.AltRows) && arm.Rows[i] != arm.AltRows[i] {
			n = i
			break
		}
	}
	return []string{fmt.Sprintf("%s: executions at different worker counts diverge (first differing row index %d)",
		arm.label(), n)}
}

// ByteConservation checks traffic accounting: every multi-rank run moves a
// positive number of bytes over a positive number of messages, single-rank
// runs move none, and the byte counters agree between the arm's two
// executions row for row.
type ByteConservation struct{}

// Name implements Invariant.
func (ByteConservation) Name() string { return "byte-conservation" }

// Check implements Invariant.
func (ByteConservation) Check(arm Arm) []string {
	var v []string
	for i, r := range arm.Rows {
		if r.P > 1 && (r.BytesSent == 0 || r.Messages == 0) {
			v = append(v, fmt.Sprintf("%s run %d (%s, P=%d): %d bytes over %d messages — a multi-rank wavefront must communicate",
				arm.label(), r.Index, r.App, r.P, r.BytesSent, r.Messages))
		}
		if r.P == 1 && r.BytesSent != 0 {
			v = append(v, fmt.Sprintf("%s run %d: single-rank run reports %d bytes sent", arm.label(), r.Index, r.BytesSent))
		}
		if (r.BytesSent == 0) != (r.Messages == 0) {
			v = append(v, fmt.Sprintf("%s run %d: %d bytes over %d messages — bytes and messages must be zero together",
				arm.label(), r.Index, r.BytesSent, r.Messages))
		}
		if i < len(arm.AltRows) && r.BytesSent != arm.AltRows[i].BytesSent {
			v = append(v, fmt.Sprintf("%s run %d: bytes_sent %d vs %d across executions — traffic is not conserved under re-execution",
				arm.label(), r.Index, r.BytesSent, arm.AltRows[i].BytesSent))
		}
	}
	return v
}

// EventConservation checks event accounting: every run processes at least
// one event, at least one per message, and the counters agree between the
// arm's two executions row for row.
type EventConservation struct{}

// Name implements Invariant.
func (EventConservation) Name() string { return "event-conservation" }

// Check implements Invariant.
func (EventConservation) Check(arm Arm) []string {
	var v []string
	for i, r := range arm.Rows {
		if r.Events == 0 {
			v = append(v, fmt.Sprintf("%s run %d: zero events", arm.label(), r.Index))
		}
		if r.Events < r.Messages {
			v = append(v, fmt.Sprintf("%s run %d: %d events < %d messages — every message costs at least one event",
				arm.label(), r.Index, r.Events, r.Messages))
		}
		if i < len(arm.AltRows) && (r.Events != arm.AltRows[i].Events || r.Messages != arm.AltRows[i].Messages) {
			v = append(v, fmt.Sprintf("%s run %d: events/messages %d/%d vs %d/%d across executions",
				arm.label(), r.Index, r.Events, r.Messages, arm.AltRows[i].Events, arm.AltRows[i].Messages))
		}
	}
	return v
}

// groupKey renders the coordinates of a row with one dimension masked out,
// so rows can be grouped by "everything else".
func groupKey(r campaign.RunResult, maskP, maskOverride bool) string {
	p, ov := fmt.Sprint(r.P), r.Override
	if maskP {
		p = "*"
	}
	if maskOverride {
		ov = "*"
	}
	return fmt.Sprintf("%s|%s|%d|%s|%s|%s|%s|%s", r.App, r.Grid, r.Htile, r.Machine, ov, r.Collective, r.Workload, p)
}

// MonotoneInP requires simulated runtime to be non-increasing in rank
// count within every group of rows that agree on everything else: at a
// fixed problem size, more processors must never slow the simulated
// application down. (Real codes can invert past the scaling knee; when a
// sweep reaches that regime the violation is the finding, documented in
// the report.)
type MonotoneInP struct{}

// Name implements Invariant.
func (MonotoneInP) Name() string { return "runtime-monotone-in-p" }

// Check implements Invariant.
func (MonotoneInP) Check(arm Arm) []string {
	groups := map[string][]campaign.RunResult{}
	var order []string
	for _, r := range arm.Rows {
		k := groupKey(r, true, false)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var v []string
	for _, k := range order {
		rows := groups[k]
		if len(rows) < 2 {
			continue
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].P < rows[j].P })
		for i := 1; i < len(rows); i++ {
			if rows[i].SimMicros > rows[i-1].SimMicros {
				v = append(v, fmt.Sprintf("%s: %s/%s on %s: runtime grows with ranks — %.1fµs at P=%d vs %.1fµs at P=%d",
					arm.label(), rows[i].App, rows[i].Grid, rows[i].Machine,
					rows[i].SimMicros, rows[i].P, rows[i-1].SimMicros, rows[i-1].P))
			}
		}
	}
	return v
}

// MonotoneInOverride requires simulated runtime to be non-decreasing along
// a declared slowing order of LogGP override names (conventionally
// fast-net → baseline → slow-net): degrading link bandwidth and latency
// must never speed the simulation up. Groups that carry fewer than two of
// the ordered overrides pass vacuously.
type MonotoneInOverride struct {
	// Slowing lists override names from fastest network to slowest.
	Slowing []string
}

// Name implements Invariant.
func (MonotoneInOverride) Name() string { return "runtime-monotone-in-link-bw" }

// Check implements Invariant.
func (m MonotoneInOverride) Check(arm Arm) []string {
	rank := map[string]int{}
	for i, name := range m.Slowing {
		rank[name] = i
	}
	groups := map[string][]campaign.RunResult{}
	var order []string
	for _, r := range arm.Rows {
		if _, ok := rank[r.Override]; !ok {
			continue
		}
		k := groupKey(r, false, true)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var v []string
	for _, k := range order {
		rows := groups[k]
		if len(rows) < 2 {
			continue
		}
		sort.Slice(rows, func(i, j int) bool { return rank[rows[i].Override] < rank[rows[j].Override] })
		for i := 1; i < len(rows); i++ {
			if rows[i].SimMicros < rows[i-1].SimMicros {
				v = append(v, fmt.Sprintf("%s: %s/%s P=%d: slower network is faster — %.1fµs under %q vs %.1fµs under %q",
					arm.label(), rows[i].App, rows[i].Grid, rows[i].P,
					rows[i].SimMicros, rows[i].Override, rows[i-1].SimMicros, rows[i-1].Override))
			}
		}
	}
	return v
}

// ErrorBandSanity checks the model-vs-simulator bookkeeping of every row:
// positive times, abs_err consistent with rel_err, the accuracy band
// consistent with abs_err, and the error itself inside a sanity ceiling
// (1000% — beyond that the comparison is measuring a bug, not a model).
type ErrorBandSanity struct{}

// Name implements Invariant.
func (ErrorBandSanity) Name() string { return "model-error-band-sanity" }

// errCeiling is the |rel err| beyond which a row is insane.
const errCeiling = 10.0

// Check implements Invariant.
func (ErrorBandSanity) Check(arm Arm) []string {
	var v []string
	for _, r := range arm.Rows {
		if !(r.SimMicros > 0) || !(r.ModelMicros > 0) {
			v = append(v, fmt.Sprintf("%s run %d: non-positive times (model %vµs, sim %vµs)",
				arm.label(), r.Index, r.ModelMicros, r.SimMicros))
			continue
		}
		if r.AbsErr != math.Abs(r.RelErr) {
			v = append(v, fmt.Sprintf("%s run %d: abs_err %v is not |rel_err| (%v)", arm.label(), r.Index, r.AbsErr, r.RelErr))
		}
		if r.Band != metrics.ErrorBand(r.AbsErr) {
			v = append(v, fmt.Sprintf("%s run %d: band %q inconsistent with abs_err %v", arm.label(), r.Index, r.Band, r.AbsErr))
		}
		if r.AbsErr >= errCeiling || math.IsNaN(r.AbsErr) {
			v = append(v, fmt.Sprintf("%s run %d: |rel err| %v beyond the %.0f%% sanity ceiling",
				arm.label(), r.Index, r.AbsErr, errCeiling*100))
		}
	}
	return v
}
