// Energygroups: the sweep-structure re-design of paper Section 5.5, three
// ways. (1) As real code: a multi-group transport solve with sequential
// and pipelined group schedules, verified to produce identical fluxes and
// timed on this host. (2) On the discrete-event simulator: the emergent
// execution times of both schedules. (3) With the plug-and-play model:
// the same comparison from just the Table 3 parameters — which is how the
// paper projects the benefit before anyone implements the re-design.
package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/sweep"
	"repro/internal/wavefront"
)

func main() {
	const groups = 4

	// --- 1. Real code on this host ---
	g := grid.NewGrid(96, 96, 64)
	dec := grid.MustDecompose(g, 4, 4)
	mp := sweep.NewMultiGroupProblem(g, 2, groups)
	octs := sweep.Octants(wavefront.Sweep3DCorners())

	seqSched := sweep.SequentialGroupSchedule(octs, groups)
	pipSched := sweep.PipelinedGroupSchedule(octs, groups)

	t0 := time.Now()
	seqFlux, err := mp.SolveSchedule(dec, 2, seqSched)
	check(err)
	seqWall := time.Since(t0)

	t0 = time.Now()
	pipFlux, err := mp.SolveSchedule(dec, 2, pipSched)
	check(err)
	pipWall := time.Since(t0)

	var maxDiff float64
	for gi := range seqFlux {
		for c := range seqFlux[gi] {
			d := seqFlux[gi][c] - pipFlux[gi][c]
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	fmt.Printf("real solve, %d groups on %d workers: sequential %v, pipelined %v (max flux diff %g)\n",
		groups, dec.P(), seqWall.Round(time.Millisecond), pipWall.Round(time.Millisecond), maxDiff)

	// --- 2. Discrete-event simulation of an MPI machine ---
	simGrid := grid.NewGrid(64, 64, 64)
	simDec := grid.MustDecompose(simGrid, 8, 8)
	mach := machine.XT4()
	simTime := func(corners []grid.Corner) float64 {
		bm := apps.Sweep3D(simGrid, 2).WithIterations(1)
		bm.Corners = corners
		res, err := bm.Simulate(new(simmpi.Sim), mach, simDec, simmpi.Options{})
		check(err)
		return res.Time
	}
	seqSim := simTime(wavefront.SequentialGroupCorners(wavefront.Sweep3DCorners(), groups))
	pipSim := simTime(wavefront.PipelinedGroupCorners(wavefront.Sweep3DCorners(), groups))
	fmt.Printf("simulated on %s, P=%d: sequential %.1f ms, pipelined %.1f ms (%.1f%% saved)\n",
		mach.Params.Name, simDec.P(), seqSim/1e3, pipSim/1e3, (seqSim-pipSim)/seqSim*100)

	// --- 3. Plug-and-play model projection ---
	bm := apps.Sweep3D(simGrid, 2).WithIterations(1)
	seqApp := bm.App.FromCorners(wavefront.SequentialGroupCorners(wavefront.Sweep3DCorners(), groups))
	pipApp := bm.App.FromCorners(wavefront.PipelinedGroupCorners(wavefront.Sweep3DCorners(), groups))
	seqRep, err := core.New(seqApp, mach).Evaluate(simDec)
	check(err)
	pipRep, err := core.New(pipApp, mach).Evaluate(simDec)
	check(err)
	fmt.Printf("model projection:            sequential %.1f ms, pipelined %.1f ms (%.1f%% saved)\n",
		seqRep.Total/1e3, pipRep.Total/1e3, (seqRep.Total-pipRep.Total)/seqRep.Total*100)
	fmt.Printf("derived structures: sequential nsweeps=%d nfull=%d ndiag=%d; pipelined nsweeps=%d nfull=%d ndiag=%d\n",
		seqApp.NSweeps, seqApp.NFull, seqApp.NDiag,
		pipApp.NSweeps, pipApp.NFull, pipApp.NDiag)
	fmt.Println("(paper Section 5.5: pipelining the groups keeps nfull=2, ndiag=2 while nsweeps scales with groups)")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
