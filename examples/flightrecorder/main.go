// Flightrecorder: walk through the observability layer of internal/obs —
// attach one recorder to a 64-rank Sweep3D simulation on a torus-connected
// dual-core XT4, then render the recording three ways: a Chrome trace-event
// timeline for ui.perfetto.dev, a sampled CSV time series, and duration
// histograms whose percentiles expose the tail contention that mean wait
// columns hide. Everything printed and written here is deterministic: the
// same bytes on every machine.
package main

import (
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/topo"
)

func main() {
	// One Sweep3D iteration: 32³ cells over an 8×8 rank grid (64 ranks on
	// 32 dual-core nodes), inter-node traffic routed over a 2D torus.
	g := grid.Cube(32)
	bm := apps.Sweep3D(g, 2).WithIterations(1)
	dec := grid.MustDecompose(g, 8, 8)
	mach := machine.XT4().WithInterconnect(topo.Spec{Kind: topo.Torus2D})

	// The recorder's feature flags choose what is collected; all of them
	// off (the default) collects nothing, and a nil recorder costs the
	// simulation nothing at all.
	rec := &obs.Recorder{Spans: true, Messages: true, Links: true, Hist: true}
	sim := new(simmpi.Sim)
	res, err := bm.Simulate(sim, mach, dec, simmpi.Options{Obs: rec})
	check(err)
	fmt.Printf("simulated %d ranks: %.1fµs makespan, %d events, %d messages\n\n",
		dec.P(), res.Time, res.Events, res.Sends)

	// 1. Timeline: one track per rank and per active link. Load the file
	//    in https://ui.perfetto.dev (or chrome://tracing); clicking a send
	//    span shows its peer and byte count, a link span its queueing
	//    delay.
	ic := sim.Topology().Interconnect()
	f, err := os.Create("flight_trace.json")
	check(err)
	check(obs.WriteTimeline(f, rec, obs.TimelineOptions{LinkName: ic.LinkName}))
	check(f.Close())
	fmt.Println("wrote flight_trace.json — open in https://ui.perfetto.dev")

	// 2. Time series: the simulation's state sampled every 100µs of
	//    simulated time — how many ranks compute vs. block, messages in
	//    flight, link busy time per interval. Plot ranks_compute against
	//    t_us to watch the wavefront pipeline fill and drain.
	f, err = os.Create("flight_samples.csv")
	check(err)
	check(obs.WriteSamples(f, rec, 100))
	check(f.Close())
	fmt.Println("wrote flight_samples.csv — e.g. ranks_compute over t_us")

	// 3. Histograms: log2-bucketed durations, percentiles computed from
	//    integer bucket counts so they are exact and merge-order free.
	//    recv_wait p99 ≫ p50 is the wavefront signature: corner ranks
	//    start immediately, far ranks wait for the whole sweep to arrive.
	fmt.Printf("\nduration histograms (µs):\n")
	res.Hists.Write(os.Stdout)
	h := &res.Hists.RecvWait
	fmt.Printf("\nreceive wait: p50 %.3gµs vs p99 %.3gµs — the pipeline-fill tail\n",
		h.Quantile(0.5), h.Quantile(0.99))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flightrecorder:", err)
		os.Exit(1)
	}
}
