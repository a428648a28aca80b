// Command sweepsim executes a wavefront benchmark on the discrete-event
// MPI simulator and compares the result with the plug-and-play model
// prediction — the reproduction's analogue of running the real code on the
// Cray XT4 and validating the model against it.
//
// The deterministic report goes to stdout; the tool's own wall time and
// event rate go to stderr, so stdout stays byte-identical run to run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/cliflags"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/replay"
	"repro/internal/simmpi"
	"repro/internal/workload"
)

func main() {
	app := flag.String("app", "sweep3d", "benchmark: lu, sweep3d, chimaera")
	cube := flag.Int("cube", 64, "problem size (cube edge, cells)")
	p := flag.Int("p", 64, "total processor (core) count")
	htile := flag.Int("htile", 2, "tile height")
	iters := flag.Int("iters", 2, "iterations to simulate")
	cores := flag.Int("cores", 2, "cores per node")
	wlJSON := flag.String("workload", "", `per-tile workload spec as inline JSON, e.g. '{"dist":"lognormal","sigma":0.4,"seed":7}' (see internal/workload)`)
	recordTrace := flag.String("record-trace", "", "record the run's op trace to this JSONL file (replay with cmd/replay)")
	obsFlags := cliflags.RegisterObs(flag.CommandLine)
	pf := prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := pf.Start()
	check(err)
	defer func() { check(stopProf()) }()

	g := grid.Cube(*cube)
	var bm apps.Benchmark
	switch *app {
	case "lu":
		bm = apps.LU(g)
	case "sweep3d":
		bm = apps.Sweep3D(g, *htile)
	case "chimaera":
		bm = apps.Chimaera(g, *htile)
	default:
		fmt.Fprintf(os.Stderr, "sweepsim: unknown app %q\n", *app)
		os.Exit(2)
	}
	bm = bm.WithIterations(*iters)

	var wl workload.Spec
	if *wlJSON != "" {
		if err := config.DecodeStrict([]byte(*wlJSON), &wl); err != nil {
			check(fmt.Errorf("-workload: %w", err))
		}
		bm = bm.WithWorkload(wl)
	}

	// The machine is built from its config spec so a recorded trace
	// header describes exactly the hardware this run simulated.
	mspec := config.MachineSpec{Preset: "xt4", CoresPerNode: *cores}
	mach, err := mspec.Machine()
	check(err)
	dec, err := grid.SquareDecomposition(g, *p)
	check(err)

	rep, err := core.New(bm.App, mach).Evaluate(dec)
	check(err)

	rec := obsFlags.Recorder()
	if obsFlags.Hist {
		if rec == nil {
			rec = &obs.Recorder{}
		}
		rec.Hist = true
	}
	if *recordTrace != "" {
		if rec == nil {
			rec = &obs.Recorder{}
		}
		rec.Ops = true
	}
	sim := new(simmpi.Sim)
	start := time.Now()
	res, err := bm.Simulate(sim, mach, dec, simmpi.Options{Obs: rec})
	wall := time.Since(start).Seconds()
	check(err)

	fmt.Printf("app=%s grid=%v P=%d (%dx%d) cores/node=%d Htile=%d iterations=%d\n",
		bm.App.Name, g, dec.P(), dec.N, dec.M, mach.CoresPerNode, bm.App.Htile, *iters)
	fmt.Printf("simulated:   %12.1f µs  (%.4f s)\n", res.Time, res.Time/1e6)
	fmt.Printf("model:       %12.1f µs  (%.4f s)\n", rep.Total, rep.Total/1e6)
	fmt.Printf("error:       %+11.2f%%\n", (rep.Total-res.Time)/res.Time*100)
	fmt.Printf("breakdown:   fill=%.1fµs stack=%.1fµs non-wavefront=%.1fµs per iteration\n",
		rep.FillTimePerIter, float64(bm.App.NSweeps)*rep.TStack, rep.TNonWavefront)
	fmt.Printf("model comm:  %.1f%% of iteration\n", rep.CommPerIter/rep.TimePerIteration*100)
	fmt.Printf("simulator:   %d events, %d messages, %d bus waits (%.1fµs total wait)\n",
		res.Events, res.Sends, res.BusQueued, res.BusWait)
	fmt.Fprintf(os.Stderr, "wall:        %.3f s simulate (schedule, topology, run), %.0f events/s\n",
		wall, float64(res.Events)/wall)
	if *recordTrace != "" {
		hdr := replay.Header{
			App:      bm.App.Name,
			Workload: workloadLabel(bm),
			Machine:  mspec,
			Grid:     config.GridSpec{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz},
			DecN:     dec.N,
			DecM:     dec.M,
		}.WithResult(res)
		check(obs.EnsureParent(*recordTrace))
		tf, err := os.Create(*recordTrace)
		check(err)
		check(replay.Write(tf, hdr, rec))
		check(tf.Close())
		fmt.Printf("trace:       %s (replay with `replay -in %s`)\n", *recordTrace, *recordTrace)
	}
	if obsFlags.Hist && res.Hists != nil {
		fmt.Println("histograms (µs):")
		res.Hists.Write(os.Stdout)
	}
	topt := obs.TimelineOptions{}
	if ic := sim.Topology().Interconnect(); ic != nil {
		topt.LinkName = ic.LinkName
	}
	check(obsFlags.WriteArtifacts(rec, topt, nil))
	if obsFlags.ChromeTrace != "" {
		fmt.Printf("trace:       %s (open in https://ui.perfetto.dev)\n", obsFlags.ChromeTrace)
	}
	if obsFlags.SampleEvery > 0 {
		fmt.Printf("samples:     %s (every %gµs)\n", obsFlags.SampleOut, obsFlags.SampleEvery)
	}
}

func workloadLabel(bm apps.Benchmark) string {
	if bm.Workload == nil {
		return ""
	}
	return bm.Workload.String()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepsim:", err)
		os.Exit(1)
	}
}
