// Replay: the record→replay→diff walkthrough of internal/workload and
// internal/replay. A 64-rank Sweep3D run with a skewed workload — a
// lognormal per-tile compute distribution plus OS-noise events — is
// recorded as a versioned op trace, read back, re-executed, and diffed
// against the original result bit for bit. The same flow is available
// from the command line:
//
//	sweepsim -workload '{"dist":"lognormal","sigma":0.4,"seed":7}' -record-trace trace.jsonl
//	replay -in trace.jsonl -out replayed.jsonl
//	cmp trace.jsonl replayed.jsonl
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/simmpi"
	"repro/internal/workload"
)

func main() {
	// 1. Describe a skewed workload: per-tile compute drawn from a
	//    lognormal with σ = 0.4 (mean exactly 1, so the total work is
	//    unchanged in expectation), plus an average of one 25µs OS-noise
	//    event every two tiles. Every sample is a pure hash of
	//    (seed, rank, sweep, tile) — no RNG stream, so the workload is
	//    bit-identical for any worker count.
	wl := workload.Spec{
		Dist: workload.DistLognormal, Sigma: 0.4, Seed: 7,
		Noise: &workload.NoiseSpec{Rate: 0.5, AmpUS: 25},
	}
	g := grid.Cube(32)
	bm := apps.Sweep3D(g, 2).WithIterations(2).WithWorkload(wl)
	dec := grid.MustDecompose(g, 8, 8)
	mspec := config.MachineSpec{Preset: "xt4", CoresPerNode: 2}
	mach, err := mspec.Machine()
	check(err)

	// The analytic model keeps the paper's uniform-compute assumption;
	// the gap it opens against the perturbed simulation is the measured
	// quantity.
	rep, err := core.New(bm.App, mach).Evaluate(dec)
	check(err)

	// 2. Record: run the simulation with the flight recorder's Ops
	//    stream enabled and write the versioned trace — a JSONL file
	//    with a schema_version'd header plus one op-stream line per rank.
	rec := &obs.Recorder{Ops: true}
	res, err := bm.Simulate(new(simmpi.Sim), mach, dec, simmpi.Options{Obs: rec})
	check(err)
	fmt.Printf("recorded:  %s / %s\n", bm.App.Name, wl.String())
	fmt.Printf("simulated: %.1fµs (model, uniform-compute: %.1fµs → %+.1f%% error under skew)\n",
		res.Time, rep.Total, (rep.Total-res.Time)/res.Time*100)

	hdr := replay.Header{
		App: bm.App.Name, Workload: wl.String(),
		Machine: mspec,
		Grid:    config.GridSpec{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz},
		DecN:    dec.N, DecM: dec.M,
	}.WithResult(res)
	f, err := os.Create("workload_trace.jsonl")
	check(err)
	check(replay.Write(f, hdr, rec))
	check(f.Close())
	fmt.Println("wrote workload_trace.jsonl")

	// 3. Replay: read the trace back and re-execute the exact op
	//    streams — no schedule generation, no workload sampling; the
	//    durations come from the file.
	f, err = os.Open("workload_trace.jsonl")
	check(err)
	hdr2, ops, err := replay.Read(f)
	check(err)
	check(f.Close())
	res2, err := replay.Replay(hdr2, ops, replay.Options{})
	check(err)

	// 4. Diff: the replay must reproduce the recorded result bit for
	//    bit — same virtual time down to the last float64 bit, same
	//    event and message counts.
	if diffs := replay.Diff(hdr2, res2); diffs != nil {
		fmt.Println("replay diverged:\n  " + strings.Join(diffs, "\n  "))
		os.Exit(1)
	}
	fmt.Printf("replayed:  %.1fµs — bit-identical to the recording\n", res2.Time)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay-example:", err)
		os.Exit(1)
	}
}
