package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/stats"
)

// RunResult is the record a campaign emits for one run: the schema version,
// the run's coordinates, the analytic model's prediction, the simulator's
// result and the error metrics between them, plus traffic and contention
// counters.
//
// Every exported JSON field is a deterministic function of the run — wall
// time is kept out of the JSONL encoding so output is byte-identical
// regardless of worker count, cache state or host speed.
type RunResult struct {
	// Schema is the row's schema version (see SchemaVersion).
	Schema     int    `json:"schema_version"`
	Index      int    `json:"index"`
	Campaign   string `json:"campaign"`
	App        string `json:"app"`
	Grid       string `json:"grid"`
	Htile      int    `json:"htile"`
	Machine    string `json:"machine"`
	Override   string `json:"override"`
	P          int    `json:"p"`
	Iterations int    `json:"iterations"`

	// Topology names the inter-node fabric for non-flat-wire machines.
	// It is omitted (with the link counters below) on bus-only runs so
	// their JSONL rows stay byte-identical to the pre-interconnect output.
	Topology string `json:"topology,omitempty"`

	// Collective names the per-iteration convergence collective, e.g.
	// "allreduce/ring/8B". It is omitted for runs without one so their
	// rows stay byte-identical to pre-collectives output.
	Collective string `json:"collective,omitempty"`

	// Workload names the app's per-tile workload spec, e.g.
	// "lognormal(σ=0.4,seed=7)+noise(0.5×25µs)". It is omitted for the
	// implicit uniform workload so workload-less rows stay byte-identical
	// to pre-workload output.
	Workload string `json:"workload,omitempty"`

	ModelMicros float64 `json:"model_us"`
	SimMicros   float64 `json:"sim_us"`
	RelErr      float64 `json:"rel_err"` // signed, (model − sim)/sim
	AbsErr      float64 `json:"abs_err"` // |rel_err|
	Band        string  `json:"band"`    // paper accuracy band (metrics.ErrorBand)
	RunsPerMon  float64 `json:"runs_per_month"`

	Events    uint64  `json:"events"`
	Messages  uint64  `json:"messages"`
	BytesSent uint64  `json:"bytes_sent"`
	BusWait   float64 `json:"bus_wait_us"`

	// Interconnect link contention (zero and omitted for bus-only runs).
	LinkWait    float64 `json:"link_wait_us,omitempty"`
	LinkQueued  uint64  `json:"link_queued,omitempty"`
	MaxLinkUtil float64 `json:"max_link_util,omitempty"`

	// Hists carries the run's duration-histogram percentiles when the
	// engine collects them (Config.Hist); omitted otherwise so rows of
	// histogram-less campaigns stay byte-identical to earlier output.
	Hists *RunHists `json:"hists,omitempty"`

	Error string `json:"error,omitempty"`

	// WallSeconds is the host wall time the run took (zero when the run
	// was served from a cache or checkpoint). It is reported in summaries
	// but deliberately excluded from JSONL (see type doc).
	WallSeconds float64 `json:"-"`
}

// rehydrate overwrites the result's identity fields from the run it is
// being served for. Cached results are shared between runs whose content
// key matches even when their sweep coordinates differ (a relabeled
// machine, a different expansion index), so the physics comes from the
// cache and the coordinates always come from the run at hand — making a
// warm-cache row byte-identical to a cold one.
func (res *RunResult) rehydrate(r Run) {
	res.Schema = SchemaVersion
	res.Index = r.Index
	res.Campaign = r.Campaign
	res.App = r.App
	res.Grid = r.Grid
	res.Htile = r.Htile
	res.Machine = r.Machine
	res.Override = r.Override
	res.P = r.P
	res.Iterations = r.Iterations
	res.Collective = r.Collective
	res.Workload = r.Workload
	res.WallSeconds = 0
}

// HistSummary is the JSONL rendering of one duration histogram: the
// observation count and the bucket-quantised percentiles in µs. All values
// derive from integer bucket counts, so they are byte-identical for every
// worker count.
type HistSummary struct {
	N   uint64  `json:"n"`
	P50 float64 `json:"p50_us"`
	P90 float64 `json:"p90_us"`
	P99 float64 `json:"p99_us"`
}

// RunHists bundles a run's histogram summaries. LinkDelay is omitted on
// flat-wire runs (no interconnect, no link events).
type RunHists struct {
	RecvWait   HistSummary  `json:"recv_wait"`
	MsgLatency HistSummary  `json:"msg_latency"`
	LinkDelay  *HistSummary `json:"link_delay,omitempty"`
}

func summarizeHist(h *obs.Hist) HistSummary {
	return HistSummary{N: h.N(), P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99)}
}

// Engine executes campaign runs on a pool of workers, each owning one
// reusable simulator. NewEngine builds one from a validated Config.
type Engine struct {
	cfg   Config
	stats execCounters
}

// Stats reports what the engine did across its Execute/ExecuteSpec calls.
func (e *Engine) Stats() ExecStats { return e.stats.snapshot() }

// workers resolves the effective pool size for n runs.
func (c Config) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Execute runs every run and returns results indexed like the input. The
// result slice is complete even on error; the returned error is the
// lowest-indexed run failure. Output is independent of Workers and of the
// cache state: a run served from the configured ResultStore is
// byte-identical to a simulated one.
//
// When checkpointing is configured, runs[i] is checkpointed under global
// position i; use ExecuteSpec for range-partitioned campaigns, which
// offsets positions so every range of one campaign shares a coherent
// position space.
func (e *Engine) Execute(runs []Run) ([]RunResult, error) {
	return e.executeAt(runs, 0)
}

// executeAt is Execute with an explicit global position offset: runs[i]
// has position pos0+i in the campaign's output, the space checkpoint
// records are keyed by.
func (e *Engine) executeAt(runs []Run, pos0 int) ([]RunResult, error) {
	cfg := e.cfg
	results := make([]RunResult, len(runs))
	if len(runs) == 0 {
		return results, nil
	}

	// Checkpoint recovery: load once, then skip any run whose position is
	// already recorded with a matching content key (a stale directory from
	// an edited spec fails the key match and re-executes).
	var recovered map[int]CheckpointEntry
	var ckpt *checkpointWriter
	if cfg.CheckpointDir != "" {
		var err error
		recovered, err = LoadCheckpoints(cfg.CheckpointDir)
		if err != nil {
			return results, err
		}
		ckpt, err = newCheckpointWriter(cfg.CheckpointDir, Range{Lo: pos0, Hi: pos0 + len(runs)})
		if err != nil {
			return results, err
		}
		defer ckpt.close()
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var tally ExecStats
	done := 0
	ckptErr := make([]error, cfg.workers(len(runs)))
	finish := func(i int, simulated, cacheHit, ckptHit bool) {
		mu.Lock()
		done++
		tally.Runs++
		if simulated {
			tally.Simulated++
		}
		if cacheHit {
			tally.CacheHits++
		}
		if ckptHit {
			tally.CheckpointHits++
		}
		if cfg.OnResult != nil {
			cfg.OnResult(results[i])
		}
		if cfg.Progress != nil {
			cfg.Progress(done, len(runs))
		}
		mu.Unlock()
	}
	for w := 0; w < cfg.workers(len(runs)); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sim := new(simmpi.Sim) // reused by every run of this worker
			var scratch []byte     // content-key buffer, reused across runs
			for i := range jobs {
				r := runs[i]
				pos := pos0 + i

				// The flight-recorded run always simulates: its purpose is
				// the recorder's streams, which caches cannot serve.
				bypass := cfg.Obs != nil && r.Index == cfg.ObsRun

				var key RunKey
				needKey := ckpt != nil || (cfg.Store != nil && !bypass)
				if needKey {
					key, scratch = r.ContentKey(KeyMode{Hist: cfg.Hist}, scratch)
				}

				if !bypass {
					if ent, ok := recovered[pos]; ok && ent.Key == key {
						var res RunResult
						if err := json.Unmarshal(ent.Row, &res); err == nil {
							res.rehydrate(r)
							results[i] = res
							finish(i, false, false, true)
							continue
						}
					}
					if cfg.Store != nil {
						if res, ok := cfg.Store.Get(key); ok {
							res.rehydrate(r)
							results[i] = res
							if ckpt != nil {
								if row, err := json.Marshal(&res); err == nil {
									if err := ckpt.append(pos, key, row); err != nil {
										ckptErr[w] = err
									}
								}
							}
							finish(i, false, true, false)
							continue
						}
					}
				}

				res := executeRun(r, cfg, sim)
				results[i] = res
				if res.Error == "" {
					if cfg.Store != nil && !bypass {
						cfg.Store.Put(key, res)
					}
					if ckpt != nil {
						if row, err := json.Marshal(&res); err == nil {
							if err := ckpt.append(pos, key, row); err != nil {
								ckptErr[w] = err
							}
						}
					}
				}
				finish(i, true, false, false)
			}
		}(w)
	}
	for i := range runs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	e.stats.add(tally)
	for i := range results {
		if results[i].Error != "" {
			return results, fmt.Errorf("campaign: run %s: %s", runs[i].Key(), results[i].Error)
		}
	}
	for _, err := range ckptErr {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// ExecuteSpec expands the spec and executes it under the engine's full
// configuration: the Filter restricts the expansion, RangePart/RangeParts
// select this process's slice of it (checkpoint positions stay global, so
// every range of a campaign shares one coherent space), and Output — if
// set — is created before anything executes and receives the results as
// JSONL (the completed prefix is written even when a run fails).
//
// The returned results cover only this process's range. An expansion left
// empty by the filter is an error — a silently empty campaign is always a
// typo in the filter or the spec.
func (e *Engine) ExecuteSpec(s Spec) ([]RunResult, error) {
	cfg := e.cfg
	runs, err := s.Expand()
	if err != nil {
		return nil, err
	}
	if cfg.Filter != "" {
		f, err := ParseFilter(cfg.Filter)
		if err != nil {
			return nil, err
		}
		runs = f.Apply(runs)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("campaign: %q has no runs after filtering", s.Name)
	}
	pos0 := 0
	if cfg.RangeParts > 1 {
		parts := Ranges(len(runs), cfg.RangeParts)
		if cfg.RangePart >= len(parts) {
			// More parts than runs: trailing parts are legitimately empty.
			return []RunResult{}, nil
		}
		rg := parts[cfg.RangePart]
		runs = runs[rg.Lo:rg.Hi]
		pos0 = rg.Lo
	}

	// Open the output before executing: an unwritable path must fail here,
	// not after minutes of sweeping. Parent directories are created.
	var outFile *os.File
	if cfg.Output != "" {
		if err := obs.EnsureParent(cfg.Output); err != nil {
			return nil, fmt.Errorf("campaign: creating output directory: %w", err)
		}
		f, err := os.Create(cfg.Output)
		if err != nil {
			return nil, fmt.Errorf("campaign: opening output: %w", err)
		}
		outFile = f
	}

	results, execErr := e.executeAt(runs, pos0)
	if outFile != nil {
		if err := WriteJSONL(outFile, results); err != nil {
			outFile.Close()
			if execErr == nil {
				execErr = err
			}
			return results, execErr
		}
		if err := outFile.Close(); err != nil && execErr == nil {
			execErr = err
		}
	}
	return results, execErr
}

// executeRun evaluates the analytic model and the simulator for one run.
// cfg supplies the observability options; sim is the
// worker's simulator, reused across its runs.
func executeRun(r Run, cfg Config, sim *simmpi.Sim) RunResult {
	start := time.Now()
	out := RunResult{
		Schema:     SchemaVersion,
		Index:      r.Index,
		Campaign:   r.Campaign,
		App:        r.App,
		Grid:       r.Grid,
		Htile:      r.Htile,
		Machine:    r.Machine,
		Override:   r.Override,
		P:          r.P,
		Iterations: r.Iterations,
		Collective: r.Collective,
		Workload:   r.Workload,
	}
	fail := func(err error) RunResult {
		out.Error = err.Error()
		out.WallSeconds = time.Since(start).Seconds()
		return out
	}

	bm := r.bm.WithIterations(r.Iterations)
	rep, err := core.New(bm.App, r.mach).Evaluate(r.dec)
	if err != nil {
		return fail(err)
	}
	res, err := bm.Simulate(sim, r.mach, r.dec, simmpi.Options{Obs: cfg.recorderFor(r.Index)})
	if err != nil {
		return fail(err)
	}

	out.ModelMicros = rep.Total
	out.SimMicros = res.Time
	out.RelErr = stats.SignedRelErr(rep.Total, res.Time)
	out.AbsErr = stats.RelErr(rep.Total, res.Time)
	out.Band = metrics.ErrorBand(out.AbsErr)
	out.RunsPerMon = metrics.TimeStepsPerMonth(res.Time)
	out.Events = res.Events
	out.Messages = res.Sends
	out.BytesSent = res.BytesSent
	out.BusWait = res.BusWait
	if ic := sim.Topology().Interconnect(); ic != nil {
		out.Topology = ic.Spec().String()
		out.LinkWait = res.LinkWait
		out.LinkQueued = res.LinkQueued
		if res.Time > 0 {
			out.MaxLinkUtil = ic.MaxLinkBusy() / res.Time
		}
	}
	if cfg.Hist && res.Hists != nil {
		rh := &RunHists{
			RecvWait:   summarizeHist(&res.Hists.RecvWait),
			MsgLatency: summarizeHist(&res.Hists.MsgLatency),
		}
		if res.Hists.LinkDelay.N() > 0 {
			ld := summarizeHist(&res.Hists.LinkDelay)
			rh.LinkDelay = &ld
		}
		out.Hists = rh
	}
	out.WallSeconds = time.Since(start).Seconds()
	return out
}
