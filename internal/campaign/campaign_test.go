package campaign

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/logp"
	"repro/internal/simmpi"
)

// specJSON is a small, fully explicit spec exercising every dimension.
const specJSON = `{
  "name": "unit",
  "iterations": 1,
  "apps": [
    {"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12}},
    {"preset": "lu", "grid": {"nx": 12, "ny": 12, "nz": 12}}
  ],
  "machines": [
    {"preset": "xt4", "cores_per_node": 2},
    {"preset": "xt4", "cores_per_node": 1, "label": "xt4 single"}
  ],
  "ranks": [4, 9],
  "loggp": [
    {"name": "baseline"},
    {"name": "slow", "scale": {"L": 2}}
  ]
}`

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*2*2*2 {
		t.Fatalf("expanded %d runs, want 16", len(runs))
	}
	// Deterministic order: app-major, then machine, then override, then rank.
	if runs[0].App != "Sweep3D" || runs[0].P != 4 || runs[0].Override != "baseline" ||
		runs[0].Machine != "Cray XT4 (2 cores/node)" {
		t.Errorf("first run %+v", runs[0])
	}
	if runs[1].P != 9 || runs[2].Override != "slow" || runs[8].App != "LU" {
		t.Errorf("order wrong: %v %v %v", runs[1].Key(), runs[2].Key(), runs[8].Key())
	}
	for i, r := range runs {
		if r.Index != i {
			t.Fatalf("run %d has index %d", i, r.Index)
		}
	}
}

// TestSpecErrors is the table-driven parsing contract: unknown fields,
// empty sweep dimensions and invalid combinations all fail with actionable
// messages.
func TestSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{
			"unknown top-level field",
			`{"name": "x", "bogus": 1, "apps": [], "machines": [], "ranks": []}`,
			"bogus",
		},
		{
			"unknown app field",
			`{"name": "x", "apps": [{"preset": "lu", "grib": {}}], "machines": [{"preset": "xt4"}], "ranks": [4]}`,
			"grib",
		},
		{
			"missing name",
			`{"apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4]}`,
			"needs a name",
		},
		{
			"no apps",
			`{"name": "x", "apps": [], "machines": [{"preset": "xt4"}], "ranks": [4]}`,
			"no apps",
		},
		{
			"no machines",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [], "ranks": [4]}`,
			"no machines",
		},
		{
			"no ranks",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": []}`,
			"no rank counts",
		},
		{
			"non-positive rank",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4, 0]}`,
			"must be positive",
		},
		{
			"duplicate rank count",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [16, 16]}`,
			"rank count 16 twice",
		},
		{
			"unknown preset",
			`{"name": "x", "apps": [{"preset": "hydra", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4]}`,
			"unknown app preset",
		},
		{
			"preset without grid",
			`{"name": "x", "apps": [{"preset": "lu"}], "machines": [{"preset": "xt4"}], "ranks": [4]}`,
			"needs a grid",
		},
		{
			"unknown machine preset",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "cm5"}], "ranks": [4]}`,
			"unknown machine preset",
		},
		{
			"unknown loggp key",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4], "loggp": [{"name": "bad", "scale": {"latency": 2}}]}`,
			"unknown parameter",
		},
		{
			"override needs a name",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4], "loggp": [{"scale": {"L": 2}}]}`,
			"needs a name",
		},
		{
			"negative override result",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4], "loggp": [{"name": "neg", "set": {"L": -1}}]}`,
			"invalid parameters",
		},
		{
			"duplicate override",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}], "ranks": [4], "loggp": [{"name": "a"}, {"name": "a"}]}`,
			"twice",
		},
		{
			"duplicate machine label",
			`{"name": "x", "apps": [{"preset": "lu", "grid": {"nx":8,"ny":8,"nz":8}}], "machines": [{"preset": "xt4"}, {"preset": "xt4"}], "ranks": [4]}`,
			"distinct label",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.json))
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestExpandRejectsOversizedDecomposition: more processor columns than grid
// cells is an invalid rank/grid combination and must fail at expansion with
// the offending run named.
func TestExpandRejectsOversizedDecomposition(t *testing.T) {
	s, err := ParseSpec([]byte(`{
	  "name": "big",
	  "apps": [{"preset": "lu", "grid": {"nx": 8, "ny": 8, "nz": 8}}],
	  "machines": [{"preset": "xt4"}],
	  "ranks": [256]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Expand()
	if err == nil {
		t.Fatal("256 ranks on an 8x8x8 grid accepted")
	}
	for _, want := range []string{"LU", "P=256", "exceeds"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRunCount: RunCount matches the expansion of the builtins (an absent
// LogGP dimension counts as the one baseline override) and saturates
// instead of overflowing when the dimension product exceeds an int.
func TestRunCount(t *testing.T) {
	for _, s := range []Spec{Example(), Flagship()} {
		runs, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.RunCount(); got != len(runs) {
			t.Errorf("%s: RunCount %d, Expand %d runs", s.Name, got, len(runs))
		}
	}
	s := Example()
	s.LogGP = nil
	if got := s.RunCount(); got != 2*2*1*3 {
		t.Errorf("no LogGP dimension: RunCount %d, want 12", got)
	}
	const d = 1 << 16 // d⁴ = 2⁶⁴ overflows int64
	huge := Spec{
		Apps:     make([]AppDim, d),
		Machines: make([]MachineDim, d),
		LogGP:    make([]ParamOverride, d),
		Ranks:    make([]int, d),
	}
	if got := huge.RunCount(); got != math.MaxInt {
		t.Errorf("RunCount of a 2^64-run spec = %d, want saturation at %d", got, math.MaxInt)
	}
}

// TestDeterministicAcrossWorkerCounts is the campaign determinism
// contract: identical JSONL bytes for any worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	s, err := ParseSpec([]byte(specJSON))
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
	if n := bytes.Count(serial, []byte("\n")); n != len(runs) {
		t.Fatalf("JSONL has %d rows, want %d", n, len(runs))
	}
	for _, workers := range []int{2, 8} {
		if par := encode(workers); !bytes.Equal(serial, par) {
			t.Errorf("workers=%d produced different JSONL bytes than workers=1", workers)
		}
	}
}

// TestDeterministicAcrossShardCounts pins the deprecated shard knobs the
// frozen perfbench module still compiles against. Every run executes on
// one engine, so for any non-negative shard count simmpi.Options.Shards
// yields the unsharded Result and ParallelStats reports (1, 0, 0), and a
// spec's "shards" field leaves the JSONL bytes and every RunKey unchanged.
// A negative count is still rejected at both layers.
func TestDeterministicAcrossShardCounts(t *testing.T) {
	encode := func(spec string) ([]byte, []Run) {
		t.Helper()
		s, err := ParseSpec([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		runs, err := s.Expand()
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
		return buf.Bytes(), runs
	}
	withShards := func(k int) string {
		return strings.Replace(specJSON, "{", fmt.Sprintf(`{"shards": %d,`, k), 1)
	}
	baseRows, baseRuns := encode(specJSON)
	if n := bytes.Count(baseRows, []byte("\n")); n != 16 {
		t.Fatalf("JSONL has %d rows, want 16", n)
	}
	// The largest run of the sweep: single-core LU at P = 9, whose
	// same-time ties once separated the sharded event order from the
	// serial one.
	r := baseRuns[len(baseRuns)-1]
	simulate := func(k int) (simmpi.Result, *simmpi.Sim, error) {
		sim := new(simmpi.Sim)
		res, err := r.bm.Simulate(sim, r.mach, r.dec, simmpi.Options{Shards: k})
		return res, sim, err
	}
	baseRes, _, err := simulate(0)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		shards  int
		wantErr bool
	}{{0, false}, {1, false}, {2, false}, {4, false}, {5, false}, {-1, true}} {
		res, sim, err := simulate(tc.shards)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Options{Shards: %d} accepted", tc.shards)
			}
			if _, err := ParseSpec([]byte(withShards(tc.shards))); err == nil {
				t.Errorf("spec with shards %d accepted", tc.shards)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Options{Shards: %d}: %v", tc.shards, err)
		}
		if !reflect.DeepEqual(res, baseRes) {
			t.Errorf("Options{Shards: %d} changed the Result", tc.shards)
		}
		if k, w, st := sim.ParallelStats(); k != 1 || w != 0 || st != 0 {
			t.Errorf("Options{Shards: %d}: ParallelStats = %d, %d, %d, want 1, 0, 0", tc.shards, k, w, st)
		}
		rows, runs := encode(withShards(tc.shards))
		if !bytes.Equal(rows, baseRows) {
			t.Errorf("spec shards %d produced different JSONL bytes", tc.shards)
		}
		for i := range runs {
			for _, mode := range []KeyMode{{}, {Hist: true}} {
				got, _ := runs[i].ContentKey(mode, nil)
				want, _ := baseRuns[i].ContentKey(mode, nil)
				if got != want {
					t.Errorf("spec shards %d changed the RunKey of %s", tc.shards, runs[i].Key())
				}
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	s, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := newEngine(t, Config{Workers: 4}).ExecuteSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	sums := Summarize(res)
	// 2 apps + 2 machines + 2 rank groups + 2 overrides.
	if len(sums) != 8 {
		t.Fatalf("got %d summaries, want 8", len(sums))
	}
	byDim := map[string][]GroupSummary{}
	for _, g := range sums {
		byDim[g.Dimension] = append(byDim[g.Dimension], g)
		if g.Runs != 8 {
			t.Errorf("%s=%s groups %d runs, want 8", g.Dimension, g.Value, g.Runs)
		}
		if g.SimP50 <= 0 || g.SimMax < g.SimP90 || g.SimP90 < g.SimP50 {
			t.Errorf("%s=%s percentiles out of order: %v %v %v",
				g.Dimension, g.Value, g.SimP50, g.SimP90, g.SimMax)
		}
		total := 0
		for _, n := range g.Bands {
			total += n
		}
		if total != 8 {
			t.Errorf("%s=%s bands cover %d runs", g.Dimension, g.Value, total)
		}
	}
	if byDim["app"][0].Value != "Sweep3D" || byDim["ranks"][0].Value != "P=4" {
		t.Errorf("group order not first-appearance: %+v", byDim)
	}
	var buf bytes.Buffer
	RenderSummary(&buf, s.Name, res, sums)
	if !strings.Contains(buf.String(), "campaign unit: 16 runs") {
		t.Errorf("summary render:\n%s", buf.String())
	}
}

func TestFilter(t *testing.T) {
	s, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFilter("app=LU, p=4|9, override=baseline")
	if err != nil {
		t.Fatal(err)
	}
	got := f.Apply(runs)
	if len(got) != 4 { // 1 app × 2 machines × 1 override × 2 ranks
		t.Fatalf("filter kept %d runs, want 4", len(got))
	}
	for i, r := range got {
		if r.App != "LU" || r.Override != "baseline" {
			t.Errorf("kept %s", r.Key())
		}
		if r.Index != i {
			t.Errorf("run %d reindexed to %d", i, r.Index)
		}
	}
	if _, err := ParseFilter("planet=mars"); err == nil {
		t.Error("unknown filter key accepted")
	}
	if _, err := ParseFilter("p=two"); err == nil {
		t.Error("non-numeric rank filter accepted")
	}
}

func TestBuiltins(t *testing.T) {
	for _, name := range BuiltinNames() {
		s, ok := Builtin(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		runs, err := s.Expand()
		if err != nil {
			t.Fatalf("builtin %q: %v", name, err)
		}
		if name == "example" && len(runs) != 24 {
			t.Errorf("example has %d runs, want 24", len(runs))
		}
		if name == "flagship" && len(runs) < 300 {
			t.Errorf("flagship has %d runs, want ≥ 300", len(runs))
		}
		if name == "topologies" && len(runs) != 24 {
			t.Errorf("topologies has %d runs, want 24", len(runs))
		}
		if name == "collectives" {
			if len(runs) != 45 {
				t.Errorf("collectives has %d runs, want 45", len(runs))
			}
			for _, r := range runs {
				if r.Collective == "" {
					t.Errorf("collectives run %s carries no collective", r.Key())
				}
			}
		}
	}
	if _, ok := Builtin("nope"); ok {
		t.Error("unknown builtin resolved")
	}
}

// TestHtileSweep: tile height is a legitimate sweep dimension (paper
// Figure 5) — two entries differing only in htile are distinct apps and
// their runs are distinguishable in output.
func TestHtileSweep(t *testing.T) {
	s, err := ParseSpec([]byte(`{
	  "name": "htile",
	  "apps": [
	    {"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12}, "htile": 1},
	    {"preset": "sweep3d", "grid": {"nx": 12, "ny": 12, "nz": 12}, "htile": 4}
	  ],
	  "machines": [{"preset": "xt4", "cores_per_node": 2}],
	  "ranks": [4]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := newEngine(t, Config{Workers: 2}).ExecuteSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Htile != 1 || res[1].Htile != 4 {
		t.Fatalf("htile runs: %+v", res)
	}
	if res[0].SimMicros == res[1].SimMicros {
		t.Error("different tile heights simulated identically")
	}
}

// TestConvergenceSweep: the collective algorithm is a legitimate sweep
// dimension — entries differing only in convergence algorithm are distinct
// apps, their rows carry the collective label, and the simulated algorithms
// produce different times.
func TestConvergenceSweep(t *testing.T) {
	s, err := ParseSpec([]byte(`{
	  "name": "conv",
	  "apps": [
	    {"preset": "lu", "grid": {"nx": 12, "ny": 12, "nz": 12}},
	    {"preset": "lu", "grid": {"nx": 12, "ny": 12, "nz": 12},
	     "convergence": {"bytes": 65536, "alg": "ring"}},
	    {"preset": "lu", "grid": {"nx": 12, "ny": 12, "nz": 12},
	     "convergence": {"bytes": 65536, "alg": "recdouble"}}
	  ],
	  "machines": [{"preset": "xt4", "cores_per_node": 2}],
	  "ranks": [9]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := newEngine(t, Config{Workers: 2}).ExecuteSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d runs, want 3", len(res))
	}
	if res[0].Collective != "" ||
		res[1].Collective != "allreduce/ring/65536B" ||
		res[2].Collective != "allreduce/recdouble/65536B" {
		t.Fatalf("collective labels: %q, %q, %q", res[0].Collective, res[1].Collective, res[2].Collective)
	}
	if res[1].SimMicros == res[2].SimMicros {
		t.Error("ring and recursive-doubling convergence simulated identically")
	}
	if res[1].SimMicros <= res[0].SimMicros {
		t.Error("a 64KB per-iteration all-reduce cost nothing")
	}
}

// TestConvergenceConflicts rejects ambiguous convergence placement and
// unknown algorithms.
func TestConvergenceConflicts(t *testing.T) {
	if _, err := ParseSpec([]byte(`{
	  "name": "bad", "ranks": [4],
	  "machines": [{"preset": "xt4", "cores_per_node": 1}],
	  "apps": [{"convergence": {"bytes": 8, "alg": "quantum"},
	    "preset": "lu", "grid": {"nx": 12, "ny": 12, "nz": 12}}]
	}`)); err == nil {
		t.Error("unknown convergence algorithm accepted")
	}
	if _, err := ParseSpec([]byte(`{
	  "name": "bad", "ranks": [4],
	  "machines": [{"preset": "xt4", "cores_per_node": 1}],
	  "apps": [{"convergence": {"bytes": 0}, "preset": "lu",
	    "grid": {"nx": 12, "ny": 12, "nz": 12}}]
	}`)); err == nil {
		t.Error("non-positive convergence size accepted")
	}
	d := AppDim{
		Spec: &config.AppSpec{
			Name: "x",
			Grid: config.GridSpec{Nx: 8, Ny: 8, Nz: 8}, Wg: 0.5, Htile: 1,
			Corners: []string{"NW"}, Angles: 6, Iterations: 1,
			Convergence: &config.ConvergenceSpec{Bytes: 8},
		},
		Convergence: &config.ConvergenceSpec{Bytes: 16},
	}
	if _, err := d.resolve(); err == nil {
		t.Error("double convergence spec accepted")
	}
}

func TestFilterRejectsTrailingGarbage(t *testing.T) {
	if _, err := ParseFilter("p=64x128"); err == nil {
		t.Error("rank filter with trailing garbage accepted")
	}
}

func TestOverrideRejectsHAlias(t *testing.T) {
	// Only the Table 2 name "oh" is accepted — an "h" alias would let one
	// override map target the handshake field through two keys, with the
	// winner decided by map iteration order.
	ov := ParamOverride{Name: "x", Set: map[string]float64{"h": 1}}
	if _, err := ov.Apply(logp.XT4()); err == nil {
		t.Error(`"h" accepted as a parameter key`)
	}
	ov = ParamOverride{Name: "x", Set: map[string]float64{"oh": 1}}
	prm, err := ov.Apply(logp.XT4())
	if err != nil || prm.H != 1 {
		t.Errorf(`"oh" override: H=%v err=%v`, prm.H, err)
	}
}
