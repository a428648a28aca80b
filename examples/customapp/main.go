// Customapp: the plug-and-play use case the paper motivates — model a
// wavefront production code that is neither LU, Sweep3D nor Chimaera by
// supplying only the Table 3 inputs, then explore a design change. The
// imaginary code "Tsunami" performs four sweeps per iteration from
// alternating corners with a pre-computation step, 4 angles, and a single
// all-reduce between iterations.
package main

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/wavefront"
)

func main() {
	g := grid.Cube(64)
	const angles = 4

	// Four sweeps: NW, then its opposite corner (full handoff), then NE
	// and its opposite — a structure none of the three benchmarks has.
	corners := []grid.Corner{grid.NW, grid.SE, grid.NE, grid.SW}

	bm := apps.Custom("Tsunami", g,
		angles*apps.GrindTime, // Wg: 4 angles
		0.05,                  // Wg,pre: small pre-computation per cell
		2,                     // Htile
		corners,
		func(dec grid.Decomposition, htile int) int { return 8 * htile * angles * dec.CellsPerRankY() },
		func(dec grid.Decomposition, htile int) int { return 8 * htile * angles * dec.CellsPerRankX() },
		core.AllReduceNonWavefront(1),
		5, // iterations
		func(dec grid.Decomposition) func(int) []simmpi.Op {
			return wavefront.AllReduceInter(1)
		})

	ns, nf, nd := wavefront.Classify(corners)
	fmt.Printf("Tsunami sweep structure: nsweeps=%d nfull=%d ndiag=%d (derived from corners)\n", ns, nf, nd)

	mach := machine.XT4()
	rep, err := core.New(bm.App, mach).EvaluateP(64)
	if err != nil {
		panic(err)
	}
	fmt.Printf("model: %.2f ms total on %d cores\n", rep.Total/1e3, rep.P)

	// The same parameter set drives the simulator — no model re-derivation.
	dec, err := grid.SquareDecomposition(g, 64)
	if err != nil {
		panic(err)
	}
	res, err := bm.Simulate(new(simmpi.Sim), mach, dec, simmpi.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("simulator: %.2f ms → model error %+.2f%%\n",
		res.Time/1e3, (rep.Total-res.Time)/res.Time*100)

	// Design study: would reordering the sweeps so consecutive sweeps
	// share corners (pipelined handoffs) help?
	redesign := bm.App.FromCorners([]grid.Corner{grid.NW, grid.NW, grid.SE, grid.SE})
	rep2, err := core.New(redesign, mach).EvaluateP(64)
	if err != nil {
		panic(err)
	}
	fmt.Printf("re-designed sweep order: %.2f ms (%+.1f%% vs original)\n",
		rep2.Total/1e3, (rep2.Total-rep.Total)/rep.Total*100)
}
