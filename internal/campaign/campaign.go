// Package campaign is the scenario-sweep subsystem: it takes a declarative
// specification of a cartesian sweep — applications × machines × rank
// counts × LogGP parameter overrides — expands it into a deterministic run
// list, and executes the runs concurrently on a worker pool in which each
// worker owns one reusable simulator (apps.Benchmark.Simulate), so the
// allocation-free core is amortised across thousands of runs.
//
// This is the paper's plug-and-play workflow at fleet scale: instead of one
// hand-written driver per "what if" question (Sections 5.1–5.5 each ask a
// few), a campaign asks hundreds at once — every run records the analytic
// model's prediction, the discrete-event simulator's result, their relative
// error, and traffic/contention counters. Results stream out as JSONL and
// fold into per-dimension summaries with percentiles.
//
// Results are independent of the worker count: runs are indexed at
// expansion, workers write into disjoint slots, and the simulator is
// bit-for-bit deterministic, so the same spec always produces byte-identical
// JSONL whether executed with one worker or sixty-four.
package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/coll"
	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/topo"
)

// Spec is the JSON-loadable description of a campaign: every combination of
// one entry per dimension becomes one run. The zero or omitted LogGP
// dimension means "baseline parameters only".
type Spec struct {
	Name string `json:"name"`
	// Iterations is the wavefront iteration count of every run (default 1).
	Iterations int `json:"iterations,omitempty"`
	// Shards is accepted and ignored, so specs written for the retired
	// sharded scheduler still parse; it is not part of any RunKey. A
	// negative value is still rejected.
	//
	// Deprecated: every run executes on one engine; the 2-shard phase of
	// the frozen perfbench module is its last caller.
	Shards int `json:"shards,omitempty"`

	Apps     []AppDim        `json:"apps"`
	Machines []MachineDim    `json:"machines"`
	Ranks    []int           `json:"ranks"`
	LogGP    []ParamOverride `json:"loggp,omitempty"`
}

// AppDim is one value of the application dimension: either a named preset
// of the paper's Table 3 benchmarks on a given grid, or a full plug-and-play
// application spec (config.AppSpec).
type AppDim struct {
	// Preset selects a built-in benchmark: "lu", "sweep3d" or "chimaera".
	Preset string `json:"preset,omitempty"`
	// Grid is the problem size for a preset.
	Grid *config.GridSpec `json:"grid,omitempty"`
	// Htile overrides the preset's tile height (default: lu 1, sweep3d 2,
	// chimaera 1).
	Htile int `json:"htile,omitempty"`
	// Spec is a full custom application instead of a preset.
	Spec *config.AppSpec `json:"spec,omitempty"`
	// Convergence adds a per-iteration convergence all-reduce executed by a
	// simulated collective algorithm (internal/coll). Sweeping the same
	// preset with different algorithms is a legitimate app dimension: the
	// algorithm is part of the run's identity.
	Convergence *config.ConvergenceSpec `json:"convergence,omitempty"`
	// Workload attaches a seeded per-tile compute workload
	// (internal/workload) to the app: a load-imbalance distribution,
	// OS-noise injection and/or multi-block regions. Sweeping the same
	// preset under different workloads is a legitimate app dimension —
	// the workload perturbs the simulator while the analytic model keeps
	// its uniform-compute assumption, so the model-vs-simulator error
	// under imbalance is the measured quantity.
	Workload *config.WorkloadSpec `json:"workload,omitempty"`
}

// MachineDim is one value of the machine dimension; it is a
// config.MachineSpec plus an optional display label for summaries and
// filters.
type MachineDim struct {
	config.MachineSpec
	Label string `json:"label,omitempty"`
}

// ParamOverride is one value of the LogGP dimension: a named perturbation
// of the machine's communication parameters, applied as multiplicative
// scales and/or absolute overrides. Keys follow the paper's Table 2 names:
// G, L, o, oh, Gcopy, Gdma, ochip, ocopy (case-insensitive).
type ParamOverride struct {
	Name  string             `json:"name"`
	Scale map[string]float64 `json:"scale,omitempty"`
	Set   map[string]float64 `json:"set,omitempty"`
}

// paramField maps a Table 2 parameter name to its field.
func paramField(p *logp.Params, key string) (*float64, bool) {
	switch strings.ToLower(key) {
	case "g":
		return &p.G, true
	case "l":
		return &p.L, true
	case "o":
		return &p.O, true
	case "oh":
		// No "h" alias: two keys resolving to one field would make the
		// winner depend on map iteration order, breaking determinism.
		return &p.H, true
	case "gcopy":
		return &p.Gcopy, true
	case "gdma":
		return &p.Gdma, true
	case "ochip":
		return &p.Ochip, true
	case "ocopy":
		return &p.Ocopy, true
	}
	return nil, false
}

// paramKeys returns the Table 2 key set for error messages, in a fixed
// order.
func paramKeys() string { return "G, L, o, oh, Gcopy, Gdma, ochip, ocopy" }

// Apply perturbs prm, scales first, then absolute sets. Map iteration order
// does not matter: each key touches a distinct field exactly once.
func (o ParamOverride) Apply(prm logp.Params) (logp.Params, error) {
	for key, factor := range o.Scale {
		f, ok := paramField(&prm, key)
		if !ok {
			return prm, fmt.Errorf("campaign: override %q scales unknown parameter %q (want one of %s)",
				o.Name, key, paramKeys())
		}
		*f *= factor
	}
	for key, val := range o.Set {
		f, ok := paramField(&prm, key)
		if !ok {
			return prm, fmt.Errorf("campaign: override %q sets unknown parameter %q (want one of %s)",
				o.Name, key, paramKeys())
		}
		*f = val
	}
	if len(o.Scale) > 0 || len(o.Set) > 0 {
		prm.Name = prm.Name + "+" + o.Name
	}
	if err := prm.Validate(); err != nil {
		return prm, fmt.Errorf("campaign: override %q produces invalid parameters: %w", o.Name, err)
	}
	return prm, nil
}

// ParseSpec decodes and validates a campaign spec from JSON bytes. Unknown
// fields are rejected.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := config.DecodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("campaign: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and decodes a campaign spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: %w", err)
	}
	return ParseSpec(data)
}

// resolveApp materialises one application dimension value.
func (d AppDim) resolve() (apps.Benchmark, error) {
	var zero apps.Benchmark
	bm, err := d.resolveBase()
	if err != nil {
		return zero, err
	}
	if d.Convergence != nil {
		if d.Spec != nil && d.Spec.Convergence != nil {
			return zero, fmt.Errorf("campaign: custom app %q carries its own convergence spec — drop the outer one", d.Spec.Name)
		}
		bm, err = d.Convergence.Apply(bm)
		if err != nil {
			return zero, fmt.Errorf("campaign: %w", err)
		}
	}
	if d.Workload != nil {
		if d.Spec != nil && d.Spec.Workload != nil {
			return zero, fmt.Errorf("campaign: custom app %q carries its own workload spec — drop the outer one", d.Spec.Name)
		}
		if err := d.Workload.Validate(); err != nil {
			return zero, fmt.Errorf("campaign: %w", err)
		}
		bm = bm.WithWorkload(*d.Workload)
	}
	return bm, nil
}

// resolveBase materialises the preset or custom spec of an app dimension.
func (d AppDim) resolveBase() (apps.Benchmark, error) {
	var zero apps.Benchmark
	switch {
	case d.Preset != "" && d.Spec != nil:
		return zero, fmt.Errorf("campaign: app sets both preset %q and a custom spec — use one", d.Preset)
	case d.Preset != "":
		if d.Grid == nil {
			return zero, fmt.Errorf("campaign: app preset %q needs a grid", d.Preset)
		}
		if d.Grid.Nx <= 0 || d.Grid.Ny <= 0 || d.Grid.Nz <= 0 {
			return zero, fmt.Errorf("campaign: app preset %q has invalid grid %dx%dx%d",
				d.Preset, d.Grid.Nx, d.Grid.Ny, d.Grid.Nz)
		}
		g := grid.NewGrid(d.Grid.Nx, d.Grid.Ny, d.Grid.Nz)
		bm, err := apps.Preset(d.Preset, g, d.Htile)
		if err != nil {
			return zero, fmt.Errorf("campaign: %w", err)
		}
		return bm, nil
	case d.Spec != nil:
		if d.Grid != nil || d.Htile != 0 {
			return zero, fmt.Errorf("campaign: custom app %q carries its own grid and htile — drop the outer ones", d.Spec.Name)
		}
		bm, err := d.Spec.Benchmark()
		if err != nil {
			return zero, fmt.Errorf("campaign: %w", err)
		}
		return bm, nil
	default:
		return zero, fmt.Errorf("campaign: app needs a preset or a custom spec")
	}
}

// sourceKey renders the app dimension's provenance for content addressing:
// the preset name for built-in benchmarks, or the canonical JSON encoding
// of a custom spec (deterministic — struct fields in declaration order,
// map keys sorted). Two textually different specs that happen to describe
// the same physics hash apart, which costs a cache miss but never risks a
// wrong hit.
func (d AppDim) sourceKey() string {
	if d.Spec != nil {
		b, err := json.Marshal(d.Spec)
		if err != nil {
			// AppSpec round-trips through DecodeStrict before reaching
			// here, so a marshal failure is unreachable; fail closed with
			// an unshareable key rather than panic.
			return "custom:unencodable:" + d.Spec.Name
		}
		return "custom:" + string(b)
	}
	return "preset:" + strings.ToLower(d.Preset)
}

// collectiveLabel renders a benchmark's convergence collective for run
// identity keys and JSONL rows; empty when none is configured.
func collectiveLabel(bm apps.Benchmark) string {
	if bm.ConvBytes <= 0 {
		return ""
	}
	return coll.Collective{Kind: coll.Allreduce, Alg: bm.ConvAlg, Bytes: bm.ConvBytes}.String()
}

// workloadLabel renders a benchmark's per-tile workload spec for run
// identity keys and JSONL rows; empty for the implicit uniform workload.
func workloadLabel(bm apps.Benchmark) string {
	if bm.Workload == nil {
		return ""
	}
	return bm.Workload.String()
}

// resolveMachine materialises one machine dimension value and its label.
func (d MachineDim) resolve() (machine.Machine, string, error) {
	m, err := d.MachineSpec.Machine()
	if err != nil {
		return machine.Machine{}, "", fmt.Errorf("campaign: %w", err)
	}
	label := d.Label
	if label == "" {
		label = m.Name
		if m.BusGroups > 1 {
			label = fmt.Sprintf("%s, %d buses", label, m.BusGroups)
		}
		if m.Interconnect.Kind != topo.Bus {
			label = fmt.Sprintf("%s, %s", label, m.Interconnect)
		}
	}
	return m, label, nil
}

// Validate checks the spec's shape: every dimension non-empty and every
// value well-formed. Cross-dimension constraints (a rank count that does
// not decompose over an app's grid) surface in Expand with per-run context.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: spec needs a name")
	}
	if s.Iterations < 0 {
		return fmt.Errorf("campaign: spec %q has negative iterations %d", s.Name, s.Iterations)
	}
	if s.Shards < 0 {
		return fmt.Errorf("campaign: spec %q has negative shards %d", s.Name, s.Shards)
	}
	if len(s.Apps) == 0 {
		return fmt.Errorf("campaign: spec %q has no apps — add at least one entry to \"apps\"", s.Name)
	}
	if len(s.Machines) == 0 {
		return fmt.Errorf("campaign: spec %q has no machines — add at least one entry to \"machines\"", s.Name)
	}
	if len(s.Ranks) == 0 {
		return fmt.Errorf("campaign: spec %q has no rank counts — add at least one entry to \"ranks\"", s.Name)
	}
	seenRanks := map[int]bool{}
	for i, p := range s.Ranks {
		if p <= 0 {
			return fmt.Errorf("campaign: spec %q rank count #%d is %d — rank counts must be positive", s.Name, i, p)
		}
		if seenRanks[p] {
			return fmt.Errorf("campaign: spec %q lists rank count %d twice", s.Name, p)
		}
		seenRanks[p] = true
	}
	seenApp := map[string]bool{}
	for i, a := range s.Apps {
		bm, err := a.resolve()
		if err != nil {
			return fmt.Errorf("%w (apps[%d])", err, i)
		}
		// Htile, the convergence collective and the workload are part of
		// the identity: sweeping tile heights (paper Figure 5), collective
		// algorithms or workload perturbations of one benchmark are
		// legitimate app dimensions.
		key := fmt.Sprintf("%s/%s/h%d/%s/%s", bm.App.Name, bm.App.Grid, bm.App.Htile,
			collectiveLabel(bm), workloadLabel(bm))
		if seenApp[key] {
			return fmt.Errorf("campaign: spec %q lists app %s twice", s.Name, key)
		}
		seenApp[key] = true
	}
	seenMach := map[string]bool{}
	for i, m := range s.Machines {
		_, label, err := m.resolve()
		if err != nil {
			return fmt.Errorf("%w (machines[%d])", err, i)
		}
		if seenMach[label] {
			return fmt.Errorf("campaign: spec %q lists machine %q twice — give one a distinct label", s.Name, label)
		}
		seenMach[label] = true
	}
	seenOv := map[string]bool{}
	for i, o := range s.overrides() {
		if o.Name == "" {
			return fmt.Errorf("campaign: spec %q loggp override #%d needs a name", s.Name, i)
		}
		if seenOv[o.Name] {
			return fmt.Errorf("campaign: spec %q lists loggp override %q twice", s.Name, o.Name)
		}
		seenOv[o.Name] = true
		if _, err := o.Apply(logp.XT4()); err != nil {
			return err
		}
	}
	return nil
}

// overrides returns the LogGP dimension, defaulting to a single identity
// override named "baseline".
func (s Spec) overrides() []ParamOverride {
	if len(s.LogGP) == 0 {
		return []ParamOverride{{Name: "baseline"}}
	}
	return s.LogGP
}

// RunCount returns the number of runs Expand would produce, without
// expanding: the product of the four dimension lengths, saturating at the
// largest int instead of overflowing. It lets a caller bound a spec before
// paying for its expansion.
func (s Spec) RunCount() int {
	n := 1
	for _, d := range []int{len(s.Apps), len(s.Machines), len(s.overrides()), len(s.Ranks)} {
		if d == 0 {
			return 0
		}
		if n > math.MaxInt/d {
			return math.MaxInt
		}
		n *= d
	}
	return n
}

// Run is one fully materialised simulation+model evaluation of a campaign.
type Run struct {
	Index      int
	Campaign   string
	App        string
	Grid       string
	Htile      int
	Machine    string
	Override   string
	P          int
	Iterations int
	// Collective names the per-iteration convergence collective, e.g.
	// "allreduce/ring/8B"; empty when the run has none.
	Collective string
	// Workload names the app's per-tile workload spec, e.g.
	// "lognormal(σ=0.4,seed=7)"; empty for the implicit uniform workload.
	Workload string

	bm   apps.Benchmark
	mach machine.Machine
	dec  grid.Decomposition
	// appSrc is the app's provenance for content addressing (runkey.go):
	// the preset name, or the canonical JSON of a custom spec — the part
	// of the app's behavior a hash of numeric fields cannot see.
	appSrc string
}

// Key renders the run's coordinates for listings and error messages.
func (r Run) Key() string {
	app := fmt.Sprintf("%s/%s/h%d", r.App, r.Grid, r.Htile)
	if r.Collective != "" {
		app += "+" + r.Collective
	}
	if r.Workload != "" {
		app += "+" + r.Workload
	}
	return fmt.Sprintf("%s × %s × %s × P=%d", app, r.Machine, r.Override, r.P)
}

// Expand validates the spec and produces its deterministic run list in
// app-major, then machine, then override, then rank order. Every
// combination is checked here — an invalid rank/grid pairing fails fast
// with the offending coordinates, before anything executes.
func (s Spec) Expand() ([]Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	iters := s.Iterations
	if iters == 0 {
		iters = 1
	}
	var runs []Run
	for _, ad := range s.Apps {
		bm, err := ad.resolve()
		if err != nil {
			return nil, err
		}
		appSrc := ad.sourceKey()
		for _, md := range s.Machines {
			baseMach, label, err := md.resolve()
			if err != nil {
				return nil, err
			}
			for _, ov := range s.overrides() {
				prm, err := ov.Apply(baseMach.Params)
				if err != nil {
					return nil, err
				}
				mach := baseMach
				mach.Params = prm
				for _, p := range s.Ranks {
					run := Run{
						Index:      len(runs),
						Campaign:   s.Name,
						App:        bm.App.Name,
						Grid:       bm.App.Grid.String(),
						Htile:      bm.App.Htile,
						Machine:    label,
						Override:   ov.Name,
						P:          p,
						Iterations: iters,
						Collective: collectiveLabel(bm),
						Workload:   workloadLabel(bm),
						bm:         bm,
						mach:       mach,
						appSrc:     appSrc,
					}
					dec, err := grid.SquareDecomposition(bm.App.Grid, p)
					if err != nil {
						return nil, fmt.Errorf("campaign: run %s: %w", run.Key(), err)
					}
					if dec.N > bm.App.Grid.Nx || dec.M > bm.App.Grid.Ny {
						return nil, fmt.Errorf(
							"campaign: run %s: %dx%d processor array exceeds the %s grid — reduce ranks or enlarge the grid",
							run.Key(), dec.N, dec.M, run.Grid)
					}
					if _, err := bm.WithIterations(iters).Schedule(dec, iters); err != nil {
						return nil, fmt.Errorf("campaign: run %s: %w", run.Key(), err)
					}
					run.dec = dec
					runs = append(runs, run)
				}
			}
		}
	}
	return runs, nil
}

// Filter restricts a run list by dimension values. The zero Filter matches
// everything.
type Filter struct {
	Apps, Machines, Overrides, Grids, Workloads []string
	Ps                                          []int
}

// ParseFilter parses a comma-separated list of key=value constraints, e.g.
// "app=LU|Sweep3D,p=64,override=baseline". Keys: app, machine, grid,
// override, workload, p. Alternatives within a key are separated by "|";
// distinct keys must all match.
func ParseFilter(expr string) (Filter, error) {
	var f Filter
	if strings.TrimSpace(expr) == "" {
		return f, nil
	}
	for _, clause := range strings.Split(expr, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok || val == "" {
			return f, fmt.Errorf("campaign: filter clause %q is not key=value", clause)
		}
		vals := strings.Split(val, "|")
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "app":
			f.Apps = append(f.Apps, vals...)
		case "machine":
			f.Machines = append(f.Machines, vals...)
		case "grid":
			f.Grids = append(f.Grids, vals...)
		case "override":
			f.Overrides = append(f.Overrides, vals...)
		case "workload":
			f.Workloads = append(f.Workloads, vals...)
		case "p", "ranks":
			for _, v := range vals {
				p, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil {
					return f, fmt.Errorf("campaign: filter rank %q is not a number", v)
				}
				f.Ps = append(f.Ps, p)
			}
		default:
			return f, fmt.Errorf("campaign: unknown filter key %q (want app, machine, grid, override, workload or p)", key)
		}
	}
	return f, nil
}

func matchAny(vals []string, v string) bool {
	if len(vals) == 0 {
		return true
	}
	for _, want := range vals {
		if strings.EqualFold(strings.TrimSpace(want), v) ||
			strings.Contains(strings.ToLower(v), strings.ToLower(strings.TrimSpace(want))) {
			return true
		}
	}
	return false
}

// Match reports whether the run satisfies every filter constraint.
// String constraints match case-insensitively, exact or substring.
func (f Filter) Match(r Run) bool {
	if !matchAny(f.Apps, r.App) || !matchAny(f.Machines, r.Machine) ||
		!matchAny(f.Grids, r.Grid) || !matchAny(f.Overrides, r.Override) ||
		!matchAny(f.Workloads, r.Workload) {
		return false
	}
	if len(f.Ps) > 0 {
		ok := false
		for _, p := range f.Ps {
			if p == r.P {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Apply returns the runs matching the filter, reindexed contiguously so a
// filtered campaign still writes dense, deterministic output.
func (f Filter) Apply(runs []Run) []Run {
	out := make([]Run, 0, len(runs))
	for _, r := range runs {
		if f.Match(r) {
			r.Index = len(out)
			out = append(out, r)
		}
	}
	return out
}
