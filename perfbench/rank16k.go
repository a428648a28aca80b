package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

// The rank16k workload is one very large run: one Sweep3D iteration on a
// 128×128×32 grid decomposed 128×128 (16,384 ranks) on the dual-core
// XT4, first serially and then at 2 shards. The event heap at ~16K
// pending events, op generation and the MPI handlers dominate it; the
// model, the campaign layer and the server do almost nothing. It is the
// only workload that runs the sharded scheduler. The 2-shard phase
// stands alone: retiring the sharded scheduler retires that phase and
// touches no other.

// The counts a correct run of this configuration produces. A change that
// only makes the simulator faster leaves them identical.
const (
	rank16kEvents      = 17727487
	rank16kMessages    = 4161536
	rank16kBusRequests = 6225920
)

type rank16k struct {
	bm   apps.Benchmark
	mach machine.Machine
	dec  grid.Decomposition
}

func newRank16k() (rank16k, error) {
	g := grid.NewGrid(128, 128, 32)
	bm, err := apps.Preset("sweep3d", g, 0)
	if err != nil {
		return rank16k{}, err
	}
	mach, err := config.MachineSpec{Preset: "xt4", CoresPerNode: 2}.Machine()
	if err != nil {
		return rank16k{}, err
	}
	dec, err := grid.SquareDecomposition(g, 128*128)
	if err != nil {
		return rank16k{}, err
	}
	return rank16k{bm.WithIterations(1), mach, dec}, nil
}

// setup builds the schedule, the topology and a simulator with every
// rank's program installed.
func (w rank16k) setup(shards int) (*simmpi.Sim, error) {
	sched, err := w.bm.Schedule(w.dec, 1)
	if err != nil {
		return nil, err
	}
	topo, err := simnet.NewMachineTopology(w.mach, w.dec)
	if err != nil {
		return nil, err
	}
	sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	return sim, nil
}

// checkCounts compares a run's counts with the reference.
func checkCounts(o *outcome, label string, res simmpi.Result) {
	o.check(res.Events == rank16kEvents && res.Sends == rank16kMessages && res.BusRequests == rank16kBusRequests,
		"rank16k %s: events %d, messages %d, bus requests %d; want %d, %d, %d", label,
		res.Events, res.Sends, res.BusRequests, rank16kEvents, rank16kMessages, rank16kBusRequests)
}

func runRank16k(cfg runConfig) (*outcome, error) {
	w, err := newRank16k()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceRank16k(cfg, w)
	}
	out := newOutcome()

	// Set-up takes milliseconds against seconds of simulation, so it is
	// repeated, each time on a collected heap, and the median reported;
	// the first repetitions are not counted.
	var setups []float64
	for i := 0; i < setupWarmups+15; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := w.setup(1); err != nil {
			return nil, err
		}
		if i >= setupWarmups {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}

	ac := newAllocCounter()
	var peak float64
	walls := map[int][]float64{}
	var allocMB, allocsPerEvent []float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < cfg.seconds; pass++ {
		var serial simmpi.Result
		for _, k := range []int{1, 2} {
			b0, o0 := ac.read()
			t0 := time.Now()
			sim, err := w.setup(k)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			res, err := sim.Run()
			wall := time.Since(t1).Seconds()
			b1, o1 := ac.read()
			peak = math.Max(peak, liveHeapMB())
			runtime.KeepAlive(sim)
			setups = append(setups, t1.Sub(t0).Seconds())
			if err != nil {
				out.check(false, "rank16k shards=%d: %v", k, err)
				continue
			}
			checkCounts(out, fmt.Sprintf("shards=%d", k), res)
			walls[k] = append(walls[k], wall)
			if k == 1 {
				serial = res
				allocMB = append(allocMB, float64(b1-b0)/(1<<20))
				allocsPerEvent = append(allocsPerEvent, float64(o1-o0)/float64(res.Events))
			} else {
				out.check(res.Events == serial.Events && res.Sends == serial.Sends && res.BusRequests == serial.BusRequests,
					"rank16k: 2 shards gave events %d, messages %d, bus requests %d; serial %d, %d, %d",
					res.Events, res.Sends, res.BusRequests, serial.Events, serial.Sends, serial.BusRequests)
			}
		}
	}
	if len(walls[1]) == 0 || len(walls[2]) == 0 {
		return nil, fmt.Errorf("rank16k: no successful run to measure")
	}

	m := out.metrics
	m["setup_s"] = median(setups)
	m["a_rate_per_s"] = rank16kEvents / median(walls[1])
	m["b_rate_per_s"] = rank16kEvents / median(walls[2])
	m["a_p50_ms"] = median(walls[1]) * 1e3
	m["a_tail_ms"] = maxOf(walls[1]) * 1e3
	m["b_p50_ms"] = median(walls[2]) * 1e3
	m["b_tail_ms"] = maxOf(walls[2]) * 1e3
	m["alloc_mb"] = median(allocMB)
	m["allocs_per_unit"] = median(allocsPerEvent)
	m["peak_heap_mb"] = peak

	out.name("setup_s", m["setup_s"], "s")
	out.name("events_per_s", m["a_rate_per_s"], "1/s")
	out.name("events_per_s_2shards", m["b_rate_per_s"], "1/s")
	out.name("speedup_2shards", m["b_rate_per_s"]/m["a_rate_per_s"], "ratio")
	out.name("allocs_per_event", m["allocs_per_unit"], "count")
	out.name("alloc_mb", m["alloc_mb"], "MB")
	out.name("peak_heap_mb", peak, "MB")
	out.notes["samples"] = map[string]int{"serial_runs": len(walls[1]), "sharded_runs": len(walls[2]), "setups": len(setups)}
	return out, nil
}

// traceRank16k times an untraced serial run, then a traced serial run, a
// standalone drain of the same programs, one model evaluation and a
// traced 2-shard run on the reset simulator.
func traceRank16k(cfg runConfig, w rank16k) (*outcome, error) {
	out := newOutcome()
	t0 := time.Now()
	sim, err := w.setup(1)
	if err != nil {
		return nil, err
	}
	base, err := sim.Run()
	untraced := time.Since(t0)
	if err != nil {
		return nil, err
	}
	checkCounts(out, "untraced serial", base)

	tr := newTracer()
	var lt layerTotals
	traced, err := traceRun(tr, &lt, w, 1, nil, 1)
	if err != nil {
		return nil, err
	}
	serial := lt
	out.check(serial.events == base.Events && serial.messages == base.Sends && serial.bytes == base.BytesSent &&
		serial.busReq == base.BusRequests && serial.busQueued == base.BusQueued && serial.busWait == base.BusWait,
		"rank16k: traced serial counters differ from the untraced run")

	sched, err := w.bm.Schedule(w.dec, 1)
	if err != nil {
		return nil, err
	}
	lt.drain(tr, sched, 2)

	root := tr.begin("bench.model", 3, -1)
	s := tr.begin("core.evaluate", 3, root)
	_, err = core.New(w.bm.App, w.mach).Evaluate(w.dec)
	lt.evaluate += tr.end(s)
	lt.evaluates++
	tr.end(root)
	if err != nil {
		return nil, err
	}

	// The 2-shard phase reuses the serial simulator through
	// ResetWithOptions, so simmpi.reset_us is the reset of 16K ranks.
	var sharded layerTotals
	if _, err := traceRun(tr, &sharded, w, 2, sim, 4); err != nil {
		return nil, err
	}
	out.check(sharded.events == serial.events && sharded.messages == serial.messages && sharded.busReq == serial.busReq,
		"rank16k: 2 shards gave events %d, messages %d, bus requests %d; serial %d, %d, %d",
		sharded.events, sharded.messages, sharded.busReq, serial.events, serial.messages, serial.busReq)
	lt.reset, lt.resets = sharded.reset, sharded.resets
	lt.windows, lt.stalls = sharded.windows, sharded.stalls

	m := out.metrics
	lt.report(m)
	m["trace.overhead_s"] = (traced - untraced).Seconds()
	out.addSelfTimes(tr)
	path, err := tr.write(cfg.outDir, fmt.Sprintf("spans-rank16k-seed%d.json", cfg.seed))
	if err != nil {
		return nil, err
	}
	out.notes["spans"] = path
	out.notes["untraced_s"] = untraced.Seconds()
	out.notes["traced_s"] = traced.Seconds()
	out.notes["sharded_run_s"] = sharded.run.Seconds()
	return out, nil
}

// traceRun sets up and runs the workload at the given shard count with a
// span around each call, reusing sim through ResetWithOptions when it is
// not nil. Its counters go to lt; it returns the wall time of set-up and
// run together.
func traceRun(tr *tracer, lt *layerTotals, w rank16k, shards int, sim *simmpi.Sim, id int64) (time.Duration, error) {
	root := tr.begin("bench.rank16k", id, -1)
	s := tr.begin("wavefront.schedule", id, root)
	sched, err := w.bm.Schedule(w.dec, 1)
	lt.schedule += tr.end(s)
	lt.schedules++
	if err != nil {
		return 0, err
	}
	s = tr.begin("simnet.topology", id, root)
	topo, err := simnet.NewMachineTopology(w.mach, w.dec)
	lt.topology += tr.end(s)
	lt.topologies++
	if err != nil {
		return 0, err
	}
	opt := simmpi.Options{Shards: shards}
	if sim == nil {
		s = tr.begin("simmpi.new", id, root)
		sim, err = simmpi.NewWithOptions(topo, opt)
		tr.end(s)
	} else {
		s = tr.begin("simmpi.reset", id, root)
		err = sim.ResetWithOptions(topo, opt)
		lt.reset += tr.end(s)
		lt.resets++
	}
	if err != nil {
		return 0, err
	}
	s = tr.begin("wavefront.programs", id, root)
	progs := sched.Programs()
	tr.end(s)
	s = tr.begin("simmpi.install", id, root)
	for r, p := range progs {
		sim.SetProgram(r, p)
	}
	tr.end(s)
	s = tr.begin("simmpi.run", id, root)
	res, err := sim.Run()
	lt.run += tr.end(s)
	if err != nil {
		return 0, err
	}
	lt.addResult(res, sim)
	return tr.end(root), nil
}
