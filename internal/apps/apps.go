// Package apps provides the plug-and-play model input parameters of the
// three benchmark codes studied in the paper (Table 3) — NAS LU, LANL
// Sweep3D and AWE Chimaera — together with the sweep schedules needed to
// execute the same computations on the discrete-event simulator.
//
// The per-cell computation times (Wg, Wg,pre) are "measured" inputs in the
// paper. This reproduction calibrates them from a single per-cell-per-angle
// grind time so that the three codes have the paper's relative costs:
// Sweep3D computes six angles per cell, Chimaera ten (paper Section 5.1),
// and on 16K processors Sweep3D's 20M-cell problem has per-iteration cost
// similar to Chimaera's 240³ problem. Callers may override Wg with values
// measured from the real kernels in internal/sweep.
package apps

import (
	"fmt"
	"strings"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/wavefront"
	"repro/internal/workload"
)

// GrindTime is the calibrated computation time per cell per angle in µs.
// It plays the role of the paper's measured Wg inputs (see package doc).
const GrindTime = 0.123

// Default workload constants from the paper.
const (
	Sweep3DAngles     = 6   // mmo, paper Section 5
	ChimaeraAngles    = 10  // paper Section 5.1
	LUBytesPerCell    = 40  // five doubles per boundary cell (Table 3)
	ChimaeraIters     = 419 // iterations per time step (Section 5)
	Sweep3DIters      = 120 // representative iterations per step (Section 5)
	LUIters           = 250 // NAS LU SSOR iteration count
	Sweep3DEnergyGrps = 30  // energy groups for production problems (Section 5.2)
)

// Benchmark couples a model parameter set with the information the
// simulator needs to execute the same computation: the sweep origin corner
// sequence (Figure 2) and the inter-iteration operations.
type Benchmark struct {
	core.App
	Corners  []grid.Corner
	InterOps func(dec grid.Decomposition) func(rank int) []simmpi.Op

	// ConvBytes and ConvAlg, when ConvBytes > 0, add a per-iteration
	// convergence all-reduce to both the simulator schedule and the
	// analytic model (see WithConvergence). Zero means none — the paper's
	// Table 3 configurations.
	ConvBytes int
	ConvAlg   simmpi.CollAlg

	// Workload, if non-nil, perturbs the simulator's per-tile compute
	// cost (see WithWorkload). The analytic model keeps the paper's
	// uniform-compute assumption regardless.
	Workload *workload.Spec

	// nonWFBase is the benchmark's NonWavefront before WithConvergence
	// wrapped it, so repeated WithConvergence calls replace the collective
	// term instead of stacking terms the schedule does not execute.
	nonWFBase func(core.Env) float64
}

// transportBytes returns the Table 3 boundary message size functions for a
// particle transport code computing the given number of angles:
// 8 × Htile × #angles × (cells along the boundary).
func transportBytesEW(angles int) func(grid.Decomposition, int) int {
	return func(dec grid.Decomposition, htile int) int {
		return 8 * htile * angles * dec.CellsPerRankY()
	}
}

func transportBytesNS(angles int) func(grid.Decomposition, int) int {
	return func(dec grid.Decomposition, htile int) int {
		return 8 * htile * angles * dec.CellsPerRankX()
	}
}

// LU returns the NAS LU benchmark parameters (Table 3): two sweeps per
// iteration, both completing fully; a pre-computation before the receives;
// tile height fixed at one cell; 40-byte-per-cell boundary messages; and a
// four-point stencil between iterations.
func LU(g grid.Grid) Benchmark {
	app := core.App{
		Name:  "LU",
		Grid:  g,
		Wg:    0.60,
		WgPre: 0.30,
		Htile: 1,
		EWBytes: func(dec grid.Decomposition, _ int) int {
			return LUBytesPerCell * dec.CellsPerRankY()
		},
		NSBytes: func(dec grid.Decomposition, _ int) int {
			return LUBytesPerCell * dec.CellsPerRankX()
		},
		NonWavefront: core.StencilNonWavefront(0.15, LUBytesPerCell),
		Iterations:   LUIters,
	}.FromCorners(wavefront.LUCorners())
	return Benchmark{
		App:     app,
		Corners: wavefront.LUCorners(),
		InterOps: func(dec grid.Decomposition) func(int) []simmpi.Op {
			comp := 0.15 * float64(dec.CellsPerRankX()) * float64(dec.CellsPerRankY()) * float64(g.Nz)
			return wavefront.StencilInter(dec, comp,
				LUBytesPerCell*dec.CellsPerRankY()*g.Nz,
				LUBytesPerCell*dec.CellsPerRankX()*g.Nz)
		},
	}
}

// Sweep3D returns the LANL Sweep3D benchmark parameters (Table 3): eight
// octant sweeps in same-corner pairs, nfull = 2 and ndiag = 2, six angles,
// effective tile height Htile = mk × mmi/mmo, and two all-reduces between
// iterations.
func Sweep3D(g grid.Grid, htile int) Benchmark {
	app := core.App{
		Name:         "Sweep3D",
		Grid:         g,
		Wg:           Sweep3DAngles * GrindTime,
		WgPre:        0,
		Htile:        htile,
		EWBytes:      transportBytesEW(Sweep3DAngles),
		NSBytes:      transportBytesNS(Sweep3DAngles),
		NonWavefront: core.AllReduceNonWavefront(2),
		Iterations:   Sweep3DIters,
	}.FromCorners(wavefront.Sweep3DCorners())
	return Benchmark{
		App:     app,
		Corners: wavefront.Sweep3DCorners(),
		InterOps: func(grid.Decomposition) func(int) []simmpi.Op {
			return wavefront.AllReduceInter(2)
		},
	}
}

// Chimaera returns the AWE Chimaera benchmark parameters (Table 3): eight
// sweeps with the interleaved middle corner pairs that raise nfull to 4,
// ten angles, fixed tile height of one cell (the paper's proposed Htile
// parameter can be explored with WithHtile), and one all-reduce between
// iterations.
func Chimaera(g grid.Grid, htile int) Benchmark {
	app := core.App{
		Name:         "Chimaera",
		Grid:         g,
		Wg:           ChimaeraAngles * GrindTime,
		WgPre:        0,
		Htile:        htile,
		EWBytes:      transportBytesEW(ChimaeraAngles),
		NSBytes:      transportBytesNS(ChimaeraAngles),
		NonWavefront: core.AllReduceNonWavefront(1),
		Iterations:   ChimaeraIters,
	}.FromCorners(wavefront.ChimaeraCorners())
	return Benchmark{
		App:     app,
		Corners: wavefront.ChimaeraCorners(),
		InterOps: func(grid.Decomposition) func(int) []simmpi.Op {
			return wavefront.AllReduceInter(1)
		},
	}
}

// Custom builds a benchmark for a user-defined wavefront code — the
// "plug-and-play" use case: specify the inputs of Table 3 and obtain both a
// model and an executable simulator schedule.
func Custom(name string, g grid.Grid, wg, wgPre float64, htile int,
	corners []grid.Corner, ewBytes, nsBytes func(grid.Decomposition, int) int,
	nonWavefront func(core.Env) float64, iterations int,
	interOps func(dec grid.Decomposition) func(int) []simmpi.Op) Benchmark {
	app := core.App{
		Name:         name,
		Grid:         g,
		Wg:           wg,
		WgPre:        wgPre,
		Htile:        htile,
		EWBytes:      ewBytes,
		NSBytes:      nsBytes,
		NonWavefront: nonWavefront,
		Iterations:   iterations,
	}.FromCorners(corners)
	return Benchmark{App: app, Corners: corners, InterOps: interOps}
}

// Preset resolves a named paper benchmark ("lu", "sweep3d" or "chimaera",
// case-insensitive) on the given grid. A non-positive htile selects the
// benchmark's default tile height (LU 1, Sweep3D 2, Chimaera 1) — the one
// policy shared by every preset-taking surface (campaign specs, topoplan).
func Preset(name string, g grid.Grid, htile int) (Benchmark, error) {
	switch strings.ToLower(name) {
	case "lu":
		bm := LU(g)
		if htile > 0 {
			bm = bm.WithHtile(htile)
		}
		return bm, nil
	case "sweep3d":
		if htile <= 0 {
			htile = 2
		}
		return Sweep3D(g, htile), nil
	case "chimaera":
		if htile <= 0 {
			htile = 1
		}
		return Chimaera(g, htile), nil
	}
	return Benchmark{}, fmt.Errorf("apps: unknown app preset %q (want lu, sweep3d or chimaera)", name)
}

// WithHtile returns a copy of the benchmark with a different tile height.
func (b Benchmark) WithHtile(h int) Benchmark {
	b.App = b.App.WithHtile(h)
	return b
}

// WithIterations returns a copy with a different per-time-step iteration
// count.
func (b Benchmark) WithIterations(n int) Benchmark {
	b.App.Iterations = n
	return b
}

// WithWg returns a copy with measured per-cell computation times, e.g.
// calibrated from the real kernels in internal/sweep.
func (b Benchmark) WithWg(wg, wgPre float64) Benchmark {
	b.App.Wg = wg
	b.App.WgPre = wgPre
	return b
}

// WithConvergence returns a copy that performs a per-iteration convergence
// all-reduce of the given size executed by the given collective algorithm
// (coll.ParseAlg names it; AlgAuto is the closed-form exchange, AlgRing and
// AlgRecDouble the simulated algorithms of internal/coll). The analytic
// model gains the matching closed-form term on top of the benchmark's
// existing Tnonwavefront, so model-vs-simulator error remains a like-for-
// like comparison. Calling it again replaces the previous convergence
// collective in both the schedule and the model.
func (b Benchmark) WithConvergence(bytes int, alg simmpi.CollAlg) Benchmark {
	base := b.App.NonWavefront
	if b.ConvBytes > 0 {
		base = b.nonWFBase // unwrap the previous convergence term
	}
	b.nonWFBase = base
	b.ConvBytes, b.ConvAlg = bytes, alg
	c := coll.Collective{Kind: coll.Allreduce, Alg: alg, Bytes: bytes}
	b.App.NonWavefront = func(e core.Env) float64 {
		t := c.Model(e.Machine, e.P())
		if base != nil {
			t += base(e)
		}
		return t
	}
	return b
}

// WithWorkload returns a copy whose simulator schedules draw per-tile
// compute costs from the given workload spec: base × mul + noise, with
// mul and noise pure seeded functions of (rank, sweep, tile) — load
// imbalance, OS noise and multi-block regions (see internal/workload).
// Only the simulator side changes; the analytic model deliberately
// keeps the paper's uniform-compute assumption, so the model-vs-
// simulator error under imbalance is the measured quantity. A uniform
// spec (the zero value) leaves schedules bit-identical to no workload.
func (b Benchmark) WithWorkload(spec workload.Spec) Benchmark {
	b.Workload = &spec
	return b
}

// Schedule builds the simulator schedule of one iteration batch of the
// benchmark on the given decomposition.
func (b Benchmark) Schedule(dec grid.Decomposition, iterations int) (*wavefront.Schedule, error) {
	if dec.Grid != b.App.Grid {
		return nil, fmt.Errorf("apps: decomposition grid %v does not match app grid %v",
			dec.Grid, b.App.Grid)
	}
	var inter func(int) []simmpi.Op
	if b.InterOps != nil {
		inter = b.InterOps(dec)
	}
	s := &wavefront.Schedule{
		Dec:        dec,
		Corners:    b.Corners,
		Htile:      b.App.Htile,
		WPre:       b.App.WgPre * dec.CellsPerTile(b.App.Htile),
		W:          b.App.Wg * dec.CellsPerTile(b.App.Htile),
		BytesEW:    b.App.EWBytes(dec, b.App.Htile),
		BytesNS:    b.App.NSBytes(dec, b.App.Htile),
		Iterations: iterations,
		InterOps:   inter,
		ConvBytes:  b.ConvBytes,
		ConvAlg:    b.ConvAlg,
	}
	if b.Workload != nil {
		gen, err := workload.New(*b.Workload, dec)
		if err != nil {
			return nil, fmt.Errorf("apps: %s workload: %w", b.App.Name, err)
		}
		s.Tile = gen.Tile
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Simulate executes the benchmark's schedule — b.App.Iterations iterations
// on dec — on sim over mach's full hardware substrate
// (simnet.NewMachineTopology, so the machine's interconnect is honoured).
// Interconnect statistics are read from sim afterwards (Sim.Topology).
func (b Benchmark) Simulate(sim *simmpi.Sim, mach machine.Machine, dec grid.Decomposition, o simmpi.Options) (simmpi.Result, error) {
	sched, err := b.Schedule(dec, b.App.Iterations)
	if err != nil {
		return simmpi.Result{}, err
	}
	topo, err := simnet.NewMachineTopology(mach, dec)
	if err != nil {
		return simmpi.Result{}, err
	}
	return sim.Simulate(topo, sched.Programs(), o)
}
