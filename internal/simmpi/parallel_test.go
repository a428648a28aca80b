package simmpi_test

// Serial/parallel equivalence: the conservative sharded scheduler must be
// bit-identical to the serial engine for every shard count — same Time,
// same per-rank finish times, same traffic and contention statistics. The
// property is exercised over the paper benchmarks (eager + on-chip paths,
// all-reduce convergence), a rendezvous-heavy synthetic exchange, and a
// torus interconnect (deferred link replay), plus deadlock reporting and
// reuse of a sharded simulator.

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/topo"
)

var shardCounts = []int{1, 2, 4, 8}

func sameFull(t *testing.T, name string, a, b simmpi.Result) {
	t.Helper()
	sameResult(t, name, a, b)
	for i := range a.ComputeTime {
		if a.ComputeTime[i] != b.ComputeTime[i] {
			t.Fatalf("%s: rank %d compute time diverged: %x vs %x", name, i, a.ComputeTime[i], b.ComputeTime[i])
		}
	}
	if a.LinkRequests != b.LinkRequests || a.LinkQueued != b.LinkQueued ||
		a.LinkBusy != b.LinkBusy || a.LinkWait != b.LinkWait {
		t.Errorf("%s: link stats diverged:\n a %+v\n b %+v", name, a, b)
	}
}

// runBench simulates one iteration of a benchmark over a fresh topology
// with the given shard count, reporting the effective shard count used.
func runBench(t *testing.T, bm apps.Benchmark, g grid.Grid, n, m int, mach machine.Machine, spec topo.Spec, shards int) (simmpi.Result, int) {
	t.Helper()
	dec := grid.MustDecompose(g, n, m)
	sim := new(simmpi.Sim)
	res, err := bm.WithIterations(1).Simulate(sim, mach.WithInterconnect(spec), dec, simmpi.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	k, _, _ := sim.ParallelStats()
	return res, k
}

// TestParallelMatchesSerialBenchmarks: the paper benchmarks — eager,
// on-chip and all-reduce traffic over a 2-cores-per-node machine — are
// bit-identical at every shard count.
func TestParallelMatchesSerialBenchmarks(t *testing.T) {
	g := grid.Cube(32)
	for _, tc := range []struct {
		name string
		bm   apps.Benchmark
	}{
		{"sweep3d", apps.Sweep3D(g, 2)},
		{"lu", apps.LU(g)},
	} {
		base, _ := runBench(t, tc.bm, g, 8, 8, machine.XT4(), topo.Spec{}, 1)
		for _, k := range shardCounts[1:] {
			res, eff := runBench(t, tc.bm, g, 8, 8, machine.XT4(), topo.Spec{}, k)
			if eff != k {
				t.Fatalf("%s: requested %d shards, ran with %d", tc.name, k, eff)
			}
			sameFull(t, tc.name, base, res)
		}
	}
}

// TestParallelMatchesSerialTorus exercises the deferred link replay: every
// interconnect reservation crosses the barrier and must reproduce the
// serial acquisition order exactly, wait times included.
func TestParallelMatchesSerialTorus(t *testing.T) {
	g := grid.Cube(32)
	spec := topo.Spec{Kind: topo.Torus2D}
	base, _ := runBench(t, apps.Sweep3D(g, 2), g, 8, 8, machine.XT4(), spec, 1)
	if base.LinkRequests == 0 {
		t.Fatal("torus run never touched a link")
	}
	for _, k := range shardCounts[1:] {
		res, eff := runBench(t, apps.Sweep3D(g, 2), g, 8, 8, machine.XT4(), spec, k)
		if eff != k {
			t.Fatalf("requested %d shards, ran with %d", k, eff)
		}
		sameFull(t, "torus", base, res)
	}
}

// rendezvousPrograms builds a phased neighbour exchange over n ranks mixing
// rendezvous-sized and eager messages with skewed compute and a closing
// all-reduce — every cross-shard protocol path in one program.
func rendezvousPrograms(n int) []simmpi.Program {
	progs := make([]simmpi.Program, n)
	for r := range progs {
		right, left := (r+1)%n, (r+n-1)%n
		var ops []simmpi.Op
		ops = append(ops, simmpi.Compute(float64(r%7)*0.9))
		if r%2 == 0 {
			ops = append(ops,
				simmpi.Send(right, 5000), simmpi.Recv(left),
				simmpi.Recv(right), simmpi.Send(left, 200),
			)
		} else {
			ops = append(ops,
				simmpi.Recv(left), simmpi.Send(right, 5000),
				simmpi.Send(left, 200), simmpi.Recv(right),
			)
		}
		ops = append(ops, simmpi.AllReduce(16), simmpi.Compute(1.5))
		if r%2 == 0 {
			ops = append(ops, simmpi.Send(right, 3000), simmpi.Recv(left))
		} else {
			ops = append(ops, simmpi.Recv(left), simmpi.Send(right, 3000))
		}
		progs[r] = simmpi.Ops(ops...)
	}
	return progs
}

func runRendezvous(t *testing.T, shards int) (simmpi.Result, int) {
	t.Helper()
	const n = 32
	mach, err := machine.XT4MultiCore(4)
	if err != nil {
		t.Fatal(err)
	}
	tp := simnet.NewTopology(mach.Params, n, simnet.LinearPlacement(mach))
	sim := new(simmpi.Sim)
	res, err := sim.Simulate(tp, rendezvousPrograms(n), simmpi.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	k, windows, _ := sim.ParallelStats()
	if k > 1 && windows == 0 {
		t.Fatalf("parallel run with %d shards executed no windows", k)
	}
	return res, k
}

// TestParallelMatchesSerialRendezvous pins the cross-shard rendezvous
// protocol: RTS, CTS and data arrival each cross the boundary separately.
func TestParallelMatchesSerialRendezvous(t *testing.T) {
	base, _ := runRendezvous(t, 1)
	if base.Sends == 0 {
		t.Fatal("exchange sent nothing")
	}
	for _, k := range shardCounts[1:] {
		res, eff := runRendezvous(t, k)
		if eff != k {
			t.Fatalf("requested %d shards, ran with %d", k, eff)
		}
		sameFull(t, "rendezvous", base, res)
	}
}

// TestParallelDeadlockReported: a rank blocking forever is reported with
// the same diagnostic serially and in parallel.
func TestParallelDeadlockReported(t *testing.T) {
	run := func(shards int) error {
		mach, err := machine.XT4MultiCore(4)
		if err != nil {
			t.Fatal(err)
		}
		tp := simnet.NewTopology(mach.Params, 8, simnet.LinearPlacement(mach))
		// Rank 7 waits for a message rank 0 never sends; cross-shard at k=2.
		progs := make([]simmpi.Program, 8)
		progs[7] = simmpi.Ops(simmpi.Recv(0))
		progs[0] = simmpi.Ops(simmpi.Send(1, 64))
		progs[1] = simmpi.Ops(simmpi.Recv(0))
		_, err = new(simmpi.Sim).Simulate(tp, progs, simmpi.Options{Shards: shards})
		return err
	}
	serr, perr := run(1), run(2)
	if serr == nil || perr == nil {
		t.Fatalf("deadlock not reported: serial=%v parallel=%v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Errorf("deadlock diagnostics differ:\n serial   %v\n parallel %v", serr, perr)
	}
	if !strings.Contains(perr.Error(), "7") {
		t.Errorf("blocked rank not named: %v", perr)
	}
}

// TestParallelResetReuse: a sharded Sim reused across runs (the campaign
// engine's pattern) stays bit-identical to fresh serial runs.
func TestParallelResetReuse(t *testing.T) {
	g := grid.Cube(32)
	base, _ := runBench(t, apps.Sweep3D(g, 2), g, 8, 8, machine.XT4(), topo.Spec{}, 1)

	bm := apps.Sweep3D(g, 2).WithIterations(1)
	dec := grid.MustDecompose(g, 8, 8)
	sim := new(simmpi.Sim)
	for run := 0; run < 3; run++ {
		res, err := bm.Simulate(sim, machine.XT4(), dec, simmpi.Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if k, _, _ := sim.ParallelStats(); k != 4 {
			t.Fatalf("run %d: ran with %d shards, want 4", run, k)
		}
		sameFull(t, "reuse", base, res)
	}
}
