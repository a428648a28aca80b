// Quickstart: evaluate a wavefront application with the plug-and-play
// model in a few lines — predict Sweep3D's runtime on a dual-core XT4-like
// machine, validate the prediction against the discrete-event simulator,
// and calibrate the per-cell work from the real transport kernel.
package main

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/sweep"
)

func main() {
	// 1. Pick a benchmark and a machine. apps.Sweep3D fills in the paper's
	// Table 3 parameters: 8 sweeps (nfull=2, ndiag=2), 6 angles, two
	// all-reduces between iterations.
	g := grid.Cube(64)
	bm := apps.Sweep3D(g, 2).WithIterations(4)
	mach := machine.XT4()

	// 2. Predict execution time on 64 processors.
	model := core.New(bm.App, mach)
	rep, err := model.EvaluateP(64)
	if err != nil {
		panic(err)
	}
	fmt.Printf("model: %s on %d cores of %s\n", bm.App.Name, rep.P, mach.Name)
	fmt.Printf("  per iteration: %.2f ms (fill %.2f ms, stacks %.2f ms, all-reduce %.3f ms)\n",
		rep.TimePerIteration/1e3, rep.FillTimePerIter/1e3,
		float64(bm.App.NSweeps)*rep.TStack/1e3, rep.TNonWavefront/1e3)
	fmt.Printf("  total (%d iterations): %.2f ms, %.1f%% communication\n",
		bm.App.Iterations, rep.Total/1e3, rep.CommPerIter/rep.TimePerIteration*100)

	// 3. Validate against the discrete-event simulator ("measurement").
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

	// 4. Calibrate Wg from the real transport kernel on this host and
	// re-evaluate: the model is "plug-and-play" — only inputs change.
	wg := sweep.CalibrateTransportWg(apps.Sweep3DAngles, 2)
	calibrated := core.New(bm.WithWg(wg, 0).App, mach)
	rep2, err := calibrated.EvaluateP(64)
	if err != nil {
		panic(err)
	}
	fmt.Printf("with host-calibrated Wg=%.4f µs/cell: total %.2f ms\n", wg, rep2.Total/1e3)
}
