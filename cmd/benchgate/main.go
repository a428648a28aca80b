// Command benchgate compares a fresh cmd/benchjson report against the
// checked-in baseline (BENCH_baseline.json) and fails when a headline
// throughput metric regressed beyond the threshold. CI runs it on every
// push so a performance regression fails the build the same way a broken
// test does.
//
// Usage:
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_simmpi.json [-threshold 0.15]
//
// Gated metrics:
//
//   - events_per_sec: discrete-event throughput of one Sweep3D iteration
//     (fails below (1−threshold)×baseline)
//   - campaign_runs_per_sec: worker-pool batch throughput
//     (fails below (1−threshold)×baseline)
//   - allocs_per_event: allocation rate of the hot path — deterministic,
//     so it is gated absolutely: it may not exceed baseline + 0.05
//   - events_per_sec_obs_disabled: the event-rate workload with the
//     observability recorder explicitly detached — holds the nil-guarded
//     hooks to their zero-cost-when-disabled claim
//     (fails below (1−threshold)×baseline)
//
// The obs-disabled gate is skipped when the baseline predates the
// observability layer and lacks the field, so old blessed baselines pass.
//
// Exit status 0 when every gate passes, 1 on regression, 2 on bad input.
// To bless a new baseline, see README.md ("CI performance gate").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metrics is the subset of the benchjson report the gate reads; unknown
// fields are ignored so the report can grow freely.
type metrics struct {
	EventsPerSec       float64 `json:"events_per_sec"`
	CampaignRunsPerSec float64 `json:"campaign_runs_per_sec"`
	AllocsPerEvent     float64 `json:"allocs_per_event"`
	GeneratedUnix      int64   `json:"generated_unix"`

	// Observability-disabled throughput (absent in baselines recorded
	// before the obs layer existed — the gate is skipped then).
	EventsPerSecObsDisabled float64 `json:"events_per_sec_obs_disabled"`
}

func load(path string) (metrics, error) {
	var m metrics
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	if m.EventsPerSec <= 0 || m.CampaignRunsPerSec <= 0 {
		return m, fmt.Errorf("%s: missing throughput metrics", path)
	}
	return m, nil
}

func main() {
	basePath := flag.String("baseline", "BENCH_baseline.json", "blessed baseline report")
	curPath := flag.String("current", "BENCH_simmpi.json", "freshly measured report")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional throughput regression")
	flag.Parse()

	if *threshold <= 0 || *threshold >= 1 {
		fmt.Fprintf(os.Stderr, "benchgate: threshold %v outside (0, 1)\n", *threshold)
		os.Exit(2)
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cur, err := load(*curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	failed := false
	gate := func(name string, baseline, current float64) {
		floor := baseline * (1 - *threshold)
		change := current/baseline - 1
		status := "ok"
		if current < floor {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-22s baseline %12.4g  current %12.4g  change %+7.2f%%  floor %12.4g  %s\n",
			name, baseline, current, 100*change, floor, status)
	}
	gate("events_per_sec", base.EventsPerSec, cur.EventsPerSec)
	gate("campaign_runs_per_sec", base.CampaignRunsPerSec, cur.CampaignRunsPerSec)
	if base.EventsPerSecObsDisabled > 0 {
		gate("events/s_obs_disabled", base.EventsPerSecObsDisabled, cur.EventsPerSecObsDisabled)
	} else {
		fmt.Printf("%-22s skipped (baseline lacks obs-disabled metric)\n", "events/s_obs_disabled")
	}

	// Allocations are deterministic, not noisy: any real increase is a leak
	// into the hot path. A small absolute slack covers runtime bookkeeping.
	const allocSlack = 0.05
	status := "ok"
	if cur.AllocsPerEvent > base.AllocsPerEvent+allocSlack {
		status = "FAIL"
		failed = true
	}
	fmt.Printf("%-22s baseline %12.4g  current %12.4g  ceiling %12.4g  %s\n",
		"allocs_per_event", base.AllocsPerEvent, cur.AllocsPerEvent, base.AllocsPerEvent+allocSlack, status)

	if failed {
		fmt.Printf("\nperformance gate FAILED (threshold %.0f%%). If the regression is intended,\n", *threshold*100)
		fmt.Println("bless a new baseline: go run ./cmd/benchjson -benchtime 20 -o BENCH_baseline.json")
		os.Exit(1)
	}
	fmt.Println("\nperformance gate passed")
}
