package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/wavefront"
)

// The flagship workload runs the campaign.Flagship builtin (360 runs of
// LU, Sweep3D and Chimaera on a 48³ grid) cold, with no store, at one
// worker: the sweep a user makes to explore a design space. Every
// simulator layer and the model work here; keying, the store and the
// server do not.

// flagshipRefJSONL pins the flagship rows (see writeFlagshipRef).
//
//go:embed testdata/flagship_ref.jsonl
var flagshipRefJSONL []byte

// simTolerance is the relative difference allowed between a row's
// simulated time and the reference. A deliberate change of the
// simulator's same-time event order moves simulated times by a fraction
// of a percent (0.35% at 16K ranks), and such a change is not a failure;
// model times, events, messages and bytes must match exactly.
const simTolerance = 0.01

// refRow is the part of a flagship row the reference pins.
type refRow struct {
	Index       int     `json:"index"`
	App         string  `json:"app"`
	Machine     string  `json:"machine"`
	Override    string  `json:"override"`
	P           int     `json:"p"`
	ModelMicros float64 `json:"model_us"`
	SimMicros   float64 `json:"sim_us"`
	Events      uint64  `json:"events"`
	Messages    uint64  `json:"messages"`
	BytesSent   uint64  `json:"bytes_sent"`
}

func refOf(r campaign.RunResult) refRow {
	return refRow{r.Index, r.App, r.Machine, r.Override, r.P, r.ModelMicros, r.SimMicros, r.Events, r.Messages, r.BytesSent}
}

// writeFlagshipRef runs the flagship campaign and writes the reference
// rows. Regenerate with
//
//	go -C perfbench run . --write-ref testdata/flagship_ref.jsonl
func writeFlagshipRef(path string) error {
	runs, err := campaign.Flagship().Expand()
	if err != nil {
		return err
	}
	eng, err := campaign.NewEngine(campaign.Config{Workers: 1})
	if err != nil {
		return err
	}
	res, err := eng.Execute(runs)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, r := range res {
		b, err := json.Marshal(refOf(r))
		if err != nil {
			return err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func loadFlagshipRef() ([]refRow, error) {
	var ref []refRow
	sc := bufio.NewScanner(bytes.NewReader(flagshipRefJSONL))
	for sc.Scan() {
		var r refRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("flagship reference: %w", err)
		}
		ref = append(ref, r)
	}
	return ref, sc.Err()
}

// checkFlagship counts each row as one attempted operation, failed when
// the run errored or its row departs from the reference.
func checkFlagship(o *outcome, ref []refRow, res []campaign.RunResult) {
	if len(res) != len(ref) {
		o.check(false, "flagship: %d rows, reference has %d", len(res), len(ref))
		return
	}
	for i, r := range res {
		if r.Error != "" {
			o.check(false, "flagship run %d: %s", i, r.Error)
			continue
		}
		got, want := refOf(r), ref[i]
		simOK := math.Abs(got.SimMicros-want.SimMicros) <= simTolerance*math.Abs(want.SimMicros)
		got.SimMicros = want.SimMicros
		o.check(simOK && got == want, "flagship row %d: got %+v, reference %+v", i, refOf(r), want)
	}
}

func runFlagship(cfg runConfig) (*outcome, error) {
	spec := campaign.Flagship()
	ref, err := loadFlagshipRef()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceFlagship(cfg, spec, ref)
	}
	out := newOutcome()

	// With one worker, results complete in index order, so the gap
	// between successive completions is each run's host latency,
	// including the engine's own per-run work.
	type done struct {
		at           time.Time
		interconnect bool
	}
	var completions []done
	newEngine := func() (*campaign.Engine, error) {
		return campaign.NewEngine(campaign.Config{Workers: 1, OnResult: func(r campaign.RunResult) {
			completions = append(completions, done{time.Now(), r.Topology != ""})
		}})
	}

	// Set-up takes under a millisecond, so it is repeated and the median
	// reported; the first repetitions, which fault in fresh heap pages,
	// are not counted. Each starts on a collected heap, so a collection
	// left running by the one before does not land in it.
	var setups []float64
	var runs []campaign.Run
	var eng *campaign.Engine
	for i := 0; i < setupWarmups+51; i++ {
		runtime.GC()
		t0 := time.Now()
		runs, err = spec.Expand()
		if err != nil {
			return nil, err
		}
		if eng, err = newEngine(); err != nil {
			return nil, err
		}
		if i >= setupWarmups {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}

	ac := newAllocCounter()
	var peak float64
	var runRates, eventRates, allocMB, allocsPerEvent, busLat, icLat []float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < cfg.seconds; pass++ {
		completions = completions[:0]
		b0, o0 := ac.read()
		t0 := time.Now()
		res, _ := eng.Execute(runs) // run errors are counted per row below
		wall := time.Since(t0).Seconds()
		b1, o1 := ac.read()
		checkFlagship(out, ref, res)

		var events uint64
		for _, r := range res {
			events += r.Events
		}
		prev := t0
		for _, c := range completions {
			ms := float64(c.at.Sub(prev)) / 1e6
			prev = c.at
			if c.interconnect {
				icLat = append(icLat, ms)
			} else {
				busLat = append(busLat, ms)
			}
		}
		runRates = append(runRates, float64(len(res))/wall)
		eventRates = append(eventRates, float64(events)/wall)
		allocMB = append(allocMB, float64(b1-b0)/(1<<20))
		allocsPerEvent = append(allocsPerEvent, float64(o1-o0)/float64(events))
		peak = math.Max(peak, liveHeapMB())
		runtime.KeepAlive(res)
	}

	m := out.metrics
	m["setup_s"] = median(setups)
	m["a_rate_per_s"] = median(runRates)
	m["b_rate_per_s"] = median(eventRates)
	// 240 bus-only runs per campaign put 12 samples above p95, and 120
	// torus/fat-tree runs put 12 above p90.
	m["a_p50_ms"] = median(busLat)
	m["a_tail_ms"] = percentile(busLat, 0.95)
	m["b_p50_ms"] = median(icLat)
	m["b_tail_ms"] = percentile(icLat, 0.90)
	m["alloc_mb"] = median(allocMB)
	m["allocs_per_unit"] = median(allocsPerEvent)
	m["peak_heap_mb"] = peak

	out.name("setup_s", m["setup_s"], "s")
	out.name("runs_per_s", m["a_rate_per_s"], "1/s")
	out.name("events_per_s", m["b_rate_per_s"], "1/s")
	out.name("alloc_mb", m["alloc_mb"], "MB")
	out.name("allocs_per_event", m["allocs_per_unit"], "count")
	out.name("peak_heap_mb", peak, "MB")
	out.notes["campaigns"] = len(runRates)
	out.notes["samples"] = map[string]int{"bus_runs": len(busLat), "interconnect_runs": len(icLat), "setups": len(setups)}
	return out, nil
}

// physics is the part of a row the traced replica recomputes: every
// field that comes from the model or the simulator.
type physics struct {
	ModelMicros, SimMicros      float64
	Events, Messages, BytesSent uint64
	BusWait, LinkWait           float64
	LinkQueued                  uint64
	MaxLinkUtil                 float64
	Topology                    string
}

func physicsOf(r campaign.RunResult) physics {
	return physics{r.ModelMicros, r.SimMicros, r.Events, r.Messages, r.BytesSent,
		r.BusWait, r.LinkWait, r.LinkQueued, r.MaxLinkUtil, r.Topology}
}

// layerTotals accumulates host time and simulated counters per layer
// over the traced calls.
type layerTotals struct {
	evaluate, schedule, topology, reset, run, drainTime time.Duration
	evaluates, schedules, topologies, resets            int
	ops, events, messages, bytes                        uint64
	busReq, busQueued, linkReq, linkQueued              uint64
	busWait                                             float64
	windows, stalls                                     uint64
}

// addResult folds one simulation's counters into the totals.
func (lt *layerTotals) addResult(res simmpi.Result, sim *simmpi.Sim) {
	lt.events += res.Events
	lt.messages += res.Sends
	lt.bytes += res.BytesSent
	lt.busReq += res.BusRequests
	lt.busQueued += res.BusQueued
	lt.busWait += res.BusWait
	lt.linkReq += res.LinkRequests
	lt.linkQueued += res.LinkQueued
	_, w, s := sim.ParallelStats()
	lt.windows += w
	lt.stalls += s
}

// drain times a standalone pass over every op of a fresh set of the
// schedule's programs: the op-generation cost a simulation of it pays.
func (lt *layerTotals) drain(tr *tracer, sched *wavefront.Schedule, id int64) {
	root := tr.begin("bench.drain", id, -1)
	s := tr.begin("wavefront.programs", id, root)
	progs := sched.Programs()
	tr.end(s)
	s = tr.begin("wavefront.drain", id, root)
	for _, p := range progs {
		for {
			if _, ok := p.Next(); !ok {
				break
			}
			lt.ops++
		}
	}
	lt.drainTime += tr.end(s)
	tr.end(root)
}

// report fills the simulator-layer per-layer metrics.
func (lt *layerTotals) report(m map[string]float64) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["core.evaluate_us"] = div(float64(lt.evaluate)/1e3, float64(lt.evaluates))
	m["wavefront.schedule_ms"] = div(float64(lt.schedule)/1e6, float64(lt.schedules))
	m["wavefront.ops"] = float64(lt.ops)
	m["wavefront.ns_per_op"] = div(float64(lt.drainTime), float64(lt.ops))
	m["simmpi.run_s"] = lt.run.Seconds()
	m["simmpi.self_ns_per_event"] = div(float64(lt.run-lt.drainTime), float64(lt.events))
	m["simmpi.reset_us"] = div(float64(lt.reset)/1e3, float64(lt.resets))
	m["simmpi.events"] = float64(lt.events)
	m["simmpi.messages"] = float64(lt.messages)
	m["simmpi.bytes_sent"] = float64(lt.bytes)
	m["des.group.windows"] = float64(lt.windows)
	m["des.group.stalls_per_window"] = div(float64(lt.stalls), float64(lt.windows))
	m["simnet.topology_ms"] = div(float64(lt.topology)/1e6, float64(lt.topologies))
	m["simnet.bus_requests"] = float64(lt.busReq)
	m["simnet.bus_queued_ratio"] = div(float64(lt.busQueued), float64(lt.busReq))
	m["simnet.bus_wait_us"] = lt.busWait
	m["topo.link_requests"] = float64(lt.linkReq)
	m["topo.link_queued_ratio"] = div(float64(lt.linkQueued), float64(lt.linkReq))
}

// traceFlagship runs the campaign once through the engine, untraced, and
// once as a traced replica that rebuilds every run from public calls in
// the order the engine's run path uses. The replica's rows must equal
// the engine's, so both measure the same program.
func traceFlagship(cfg runConfig, spec campaign.Spec, ref []refRow) (*outcome, error) {
	out := newOutcome()
	tr := newTracer()
	var expands []float64
	var runs []campaign.Run
	var err error
	for i := 0; i < 5; i++ {
		id := int64(-1 - i) // run ids are the indexes from 0
		root := tr.begin("bench.expand", id, -1)
		s := tr.begin("campaign.expand", id, root)
		runs, err = spec.Expand()
		expands = append(expands, float64(tr.end(s))/1e6)
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	eng, err := campaign.NewEngine(campaign.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, _ := eng.Execute(runs) // run errors are counted per row
	untraced := time.Since(t0)
	checkFlagship(out, ref, res)
	var inRuns float64
	for _, r := range res {
		inRuns += r.WallSeconds
	}

	var lt layerTotals
	t0 = time.Now()
	rows, scheds := replayFlagship(out, tr, &lt, spec)
	traced := time.Since(t0)
	out.check(len(rows) == len(res), "flagship replica: %d rows, engine %d", len(rows), len(res))
	for i := 0; i < len(rows) && i < len(res); i++ {
		out.check(rows[i] == physicsOf(res[i]), "flagship replica row %d: %+v, engine %+v", i, rows[i], physicsOf(res[i]))
	}
	for i, s := range scheds {
		if s != nil {
			lt.drain(tr, s, int64(i))
		}
	}

	m := out.metrics
	lt.report(m)
	m["campaign.expand_ms"] = median(expands)
	m["campaign.overhead_share"] = (untraced.Seconds() - inRuns) / untraced.Seconds()
	m["trace.overhead_s"] = (traced - untraced).Seconds()
	out.addSelfTimes(tr)
	path, err := tr.write(cfg.outDir, fmt.Sprintf("spans-flagship-seed%d.json", cfg.seed))
	if err != nil {
		return nil, err
	}
	out.notes["spans"] = path
	out.notes["untraced_s"] = untraced.Seconds()
	out.notes["traced_s"] = traced.Seconds()
	return out, nil
}

// replayFlagship executes every run of the spec from public calls, with
// a span around each call, and returns each run's physics and schedule.
// A run that fails is counted and leaves a zero row.
func replayFlagship(o *outcome, tr *tracer, lt *layerTotals, spec campaign.Spec) ([]physics, []*wavefront.Schedule) {
	iters := spec.Iterations
	if iters == 0 {
		iters = 1
	}
	overrides := spec.LogGP
	if len(overrides) == 0 {
		overrides = []campaign.ParamOverride{{Name: "baseline"}}
	}
	var rows []physics
	var scheds []*wavefront.Schedule
	var sim *simmpi.Sim
	for _, ad := range spec.Apps {
		for _, md := range spec.Machines {
			for _, ov := range overrides {
				for _, p := range spec.Ranks {
					id := int64(len(rows))
					row, sched, err := replayRun(tr, lt, &sim, id, ad, md, ov, p, iters, spec.Shards)
					if err != nil {
						o.fail("flagship replica run %d: %v", id, err)
					}
					rows = append(rows, row)
					scheds = append(scheds, sched)
				}
			}
		}
	}
	return rows, scheds
}

func replayRun(tr *tracer, lt *layerTotals, simp **simmpi.Sim, id int64, ad campaign.AppDim,
	md campaign.MachineDim, ov campaign.ParamOverride, p, iters, shards int) (physics, *wavefront.Schedule, error) {
	var row physics
	root := tr.begin("bench.run", id, -1)
	defer tr.end(root)
	if ad.Preset == "" || ad.Grid == nil || ad.Spec != nil || ad.Convergence != nil || ad.Workload != nil {
		return row, nil, fmt.Errorf("replica handles preset apps only")
	}

	s := tr.begin("apps.preset", id, root)
	bm, err := apps.Preset(ad.Preset, grid.NewGrid(ad.Grid.Nx, ad.Grid.Ny, ad.Grid.Nz), ad.Htile)
	tr.end(s)
	if err != nil {
		return row, nil, err
	}
	s = tr.begin("config.machine", id, root)
	mach, err := md.MachineSpec.Machine()
	tr.end(s)
	if err != nil {
		return row, nil, err
	}
	s = tr.begin("campaign.override", id, root)
	mach.Params, err = ov.Apply(mach.Params)
	tr.end(s)
	if err != nil {
		return row, nil, err
	}
	s = tr.begin("grid.decomposition", id, root)
	dec, err := grid.SquareDecomposition(bm.App.Grid, p)
	tr.end(s)
	if err != nil {
		return row, nil, err
	}
	bm = bm.WithIterations(iters)

	s = tr.begin("core.evaluate", id, root)
	rep, err := core.New(bm.App, mach).Evaluate(dec)
	lt.evaluate += tr.end(s)
	lt.evaluates++
	if err != nil {
		return row, nil, err
	}
	s = tr.begin("wavefront.schedule", id, root)
	sched, err := bm.Schedule(dec, iters)
	lt.schedule += tr.end(s)
	lt.schedules++
	if err != nil {
		return row, nil, err
	}
	s = tr.begin("simnet.topology", id, root)
	topo, err := simnet.NewMachineTopology(mach, dec)
	lt.topology += tr.end(s)
	lt.topologies++
	if err != nil {
		return row, nil, err
	}
	opt := simmpi.Options{Shards: shards}
	if *simp == nil {
		s = tr.begin("simmpi.new", id, root)
		*simp, err = simmpi.NewWithOptions(topo, opt)
		tr.end(s)
	} else {
		s = tr.begin("simmpi.reset", id, root)
		err = (*simp).ResetWithOptions(topo, opt)
		lt.reset += tr.end(s)
		lt.resets++
	}
	if err != nil {
		return row, nil, err
	}
	sim := *simp
	s = tr.begin("wavefront.programs", id, root)
	progs := sched.Programs()
	tr.end(s)
	s = tr.begin("simmpi.install", id, root)
	for r, prog := range progs {
		sim.SetProgram(r, prog)
	}
	tr.end(s)
	s = tr.begin("simmpi.run", id, root)
	res, err := sim.Run()
	lt.run += tr.end(s)
	if err != nil {
		return row, nil, err
	}
	lt.addResult(res, sim)

	row = physics{ModelMicros: rep.Total, SimMicros: res.Time, Events: res.Events,
		Messages: res.Sends, BytesSent: res.BytesSent, BusWait: res.BusWait}
	if ic := topo.Interconnect(); ic != nil {
		row.Topology = ic.Spec().String()
		row.LinkWait = res.LinkWait
		row.LinkQueued = res.LinkQueued
		if res.Time > 0 {
			row.MaxLinkUtil = ic.MaxLinkBusy() / res.Time
		}
	}
	return row, sched, nil
}
