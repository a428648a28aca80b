package simmpi_test

// Tests of Sim reuse: a Sim reused through Simulate must behave
// bit-identically to a fresh zero Sim (the campaign engine depends on this
// for worker-count-independent results), and back-to-back runs of the same
// configuration must be near-allocation-free so sweeps amortise the
// simulator's pools across runs, not just within one.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

// runBenchmark simulates one iteration of bm at p ranks of the XT4 on sim.
func runBenchmark(t *testing.T, sim *simmpi.Sim, bm apps.Benchmark, p int) simmpi.Result {
	t.Helper()
	dec, err := grid.SquareDecomposition(bm.App.Grid, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bm.WithIterations(1).Simulate(sim, machine.XT4(), dec, simmpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// programs returns the slice programs as the Program slice Simulate takes.
func programs(sps []*simmpi.SliceProgram) []simmpi.Program {
	progs := make([]simmpi.Program, len(sps))
	for r, p := range sps {
		progs[r] = p
	}
	return progs
}

// simulate runs progs on sim over topo with the default options.
func simulate(t *testing.T, sim *simmpi.Sim, topo *simnet.Topology, progs []simmpi.Program) simmpi.Result {
	t.Helper()
	res, err := sim.Simulate(topo, progs, simmpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(t *testing.T, name string, a, b simmpi.Result) {
	t.Helper()
	if a.Time != b.Time || a.Events != b.Events || a.Sends != b.Sends ||
		a.Recvs != b.Recvs || a.BytesSent != b.BytesSent ||
		a.BusWait != b.BusWait || a.BusBusy != b.BusBusy ||
		a.BusRequests != b.BusRequests || a.BusQueued != b.BusQueued {
		t.Errorf("%s: reset run diverged from fresh run:\n fresh %+v\n reset %+v", name, a, b)
	}
	for i := range a.RankFinish {
		if a.RankFinish[i] != b.RankFinish[i] {
			t.Fatalf("%s: rank %d finish diverged: %x vs %x", name, i, a.RankFinish[i], b.RankFinish[i])
		}
	}
}

// TestResetBitIdentical reuses one Sim across the three paper benchmarks at
// varying rank counts — shrinking and growing the rank array, re-shaping the
// channel tables — and demands each run match a fresh zero Sim to the last
// bit.
func TestResetBitIdentical(t *testing.T) {
	g := grid.Cube(24)
	cases := []struct {
		name string
		bm   apps.Benchmark
		p    int
	}{
		{"sweep3d-16", apps.Sweep3D(g, 2), 16},
		{"lu-64", apps.LU(g), 64},
		{"chimaera-4", apps.Chimaera(g, 1), 4},
		{"sweep3d-36", apps.Sweep3D(g, 2), 36},
	}
	seed := simnet.NewTopology(machine.XT4().Params, 4, simnet.SpreadPlacement())
	sim := new(simmpi.Sim)
	simulate(t, sim, seed, []simmpi.Program{
		simmpi.Ops(simmpi.AllReduce(8)), simmpi.Ops(simmpi.AllReduce(8)),
		simmpi.Ops(simmpi.AllReduce(8)), simmpi.Ops(simmpi.AllReduce(8)),
	})
	for _, tc := range cases {
		sameResult(t, tc.name, runBenchmark(t, new(simmpi.Sim), tc.bm, tc.p), runBenchmark(t, sim, tc.bm, tc.p))
	}
}

// collectiveProgs builds per-rank programs running a mix of every expanded
// collective with interleaved compute.
func collectiveProgs(ranks int) []*simmpi.SliceProgram {
	progs := make([]*simmpi.SliceProgram, ranks)
	for r := 0; r < ranks; r++ {
		progs[r] = simmpi.Ops(
			simmpi.Compute(float64(r)*0.25),
			simmpi.Bcast(0, 4096),
			simmpi.AllReduceAlg(8192, simmpi.AlgRing),
			simmpi.Compute(1.0),
			simmpi.AllReduceAlg(64, simmpi.AlgRecDouble),
			simmpi.Barrier(),
		)
	}
	return progs
}

// collectiveRun simulates the collective mix at the given rank count on sim.
func collectiveRun(t *testing.T, sim *simmpi.Sim, ranks int) simmpi.Result {
	t.Helper()
	mach := machine.XT4()
	topo := simnet.NewTopology(mach.Params, ranks, simnet.LinearPlacement(mach))
	return simulate(t, sim, topo, programs(collectiveProgs(ranks)))
}

// TestResetCollectiveBitIdentical reuses one Sim across collective-heavy
// programs at shrinking and growing rank counts — exercising the pooled
// per-rank expansion buffers — and demands bit-identity with fresh runs.
func TestResetCollectiveBitIdentical(t *testing.T) {
	sim := new(simmpi.Sim)
	simulate(t, sim, simnet.NewTopology(machine.XT4().Params, 4, simnet.SpreadPlacement()),
		[]simmpi.Program{
			simmpi.Ops(simmpi.Barrier()), simmpi.Ops(simmpi.Barrier()),
			simmpi.Ops(simmpi.Barrier()), simmpi.Ops(simmpi.Barrier()),
		})
	for _, ranks := range []int{16, 7, 32, 16} {
		name := fmt.Sprintf("collectives-%d", ranks)
		sameResult(t, name, collectiveRun(t, new(simmpi.Sim), ranks), collectiveRun(t, sim, ranks))
	}
}

// TestResetCollectiveAllocsNearZero extends the reuse contract to
// collectives: once a Sim has expanded a collective program, re-running it
// through Simulate must stay within the same ≤8 allocs budget as point-to-point
// traffic — the expansion buffers, pools and rings must all be reused.
func TestResetCollectiveAllocsNearZero(t *testing.T) {
	const ranks = 16
	mach := machine.XT4()
	topo := simnet.NewTopology(mach.Params, ranks, simnet.LinearPlacement(mach))
	sps := collectiveProgs(ranks)
	progs := programs(sps)
	sim := new(simmpi.Sim)
	run := func() {
		topo.Reset()
		for _, p := range sps {
			p.Rewind()
		}
		simulate(t, sim, topo, progs)
	}
	run() // first run grows the pools and expansion buffers
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("%.1f allocs per collective re-run", allocs)
	if allocs > 8 {
		t.Errorf("collective reset run allocates too much: %.1f allocs/run, want ≤ 8", allocs)
	}
}

// TestResetAllocsNearZero is the reuse contract: once a Sim has run a
// configuration, re-running it through Simulate must allocate near zero — a
// couple of Result slices, nothing proportional to events or messages.
func TestResetAllocsNearZero(t *testing.T) {
	const ranks = 16
	const rounds = 50
	mach := machine.XT4()
	topo := simnet.NewTopology(mach.Params, ranks, simnet.LinearPlacement(mach))
	// A neighbour ring of eager and rendezvous traffic with interleaved
	// compute, exercising pools, rings and the bus without all-reduce
	// generations (which allocate by design, once per generation).
	sps := make([]*simmpi.SliceProgram, ranks)
	for r := range sps {
		next := (r + 1) % ranks
		prev := (r + ranks - 1) % ranks
		var ops []simmpi.Op
		for i := 0; i < rounds; i++ {
			ops = append(ops,
				simmpi.Compute(1.5),
				simmpi.Send(next, 512),
				simmpi.Recv(prev),
				simmpi.Send(next, 4096),
				simmpi.Recv(prev),
			)
		}
		sps[r] = simmpi.Ops(ops...)
	}
	progs := programs(sps)
	sim := new(simmpi.Sim)
	var events uint64
	run := func() {
		topo.Reset()
		for _, p := range sps {
			p.Rewind()
		}
		events = simulate(t, sim, topo, progs).Events
	}
	run() // first run grows the pools
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("%.1f allocs per re-run over %d events", allocs, events)
	// Result carries two fresh per-rank slices; everything else must reuse.
	if allocs > 8 {
		t.Errorf("reset run allocates too much: %.1f allocs/run, want ≤ 8", allocs)
	}
}

// TestFreshRunAllocsPerEvent is the roadmap's allocation guard for large
// runs: a fresh 4,096-rank Sweep3D Benchmark.Simulate — schedule, topology,
// simulator, programs and the simulation itself — must stay at or below
// 0.01 heap allocations per simulated event. Op templates, channel rings
// and event buckets all grow in place, so nothing allocates per message.
func TestFreshRunAllocsPerEvent(t *testing.T) {
	checkFreshRunAllocs(t, simmpi.Options{})
}

// TestShardedRunAllocsPerEvent holds a 2-shard run of the same
// configuration to the same bound: the barrier between windows reuses its
// record buffers and sorts them without allocating.
func TestShardedRunAllocsPerEvent(t *testing.T) {
	checkFreshRunAllocs(t, simmpi.Options{Shards: 2})
}

func checkFreshRunAllocs(t *testing.T, opts simmpi.Options) {
	g := grid.NewGrid(64, 64, 32)
	bm, err := apps.Preset("sweep3d", g, 0)
	if err != nil {
		t.Fatal(err)
	}
	bm = bm.WithIterations(1)
	dec, err := grid.SquareDecomposition(g, 64*64)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.XT4()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := bm.Simulate(new(simmpi.Sim), mach, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(res.Events)
	t.Logf("%d allocs over %d events: %.4f per event", after.Mallocs-before.Mallocs, res.Events, perEvent)
	if perEvent > 0.01 {
		t.Errorf("fresh 4096-rank run at %d shards: %.4f allocs per event, want ≤ 0.01", opts.Shards, perEvent)
	}
}
