// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints
// every metric with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with
// tracing off; with --trace 1 they are the per-layer set, from a separate
// run that records spans around each call into a layer. The line before it
// is a report with the host record and the workload's headline figures
// under their own names. See README.md in this directory for the
// workloads, the metrics and the layers each one moves.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload flagship --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// busyThreads is the GOMAXPROCS every workload runs under: the benchmark
// host has 2 vCPUs, and pinning it keeps numbers from different hosts'
// core counts comparable in the one dimension the benchmark controls.
const busyThreads = 2

// setupWarmups is how many repetitions of a cheap set-up run before the
// ones that are timed: the first ones fault in fresh heap pages.
const setupWarmups = 5

// unitMetric is a metric declaration: its name and unit.
type unitMetric struct{ name, unit string }

// endToEnd is the metric set of --trace 0, the same on every workload.
// Each workload fills each slot with its own quantity (README.md maps
// them): the a_ slots hold the workload's primary operation and the b_
// slots its secondary one.
var endToEnd = []unitMetric{
	{"setup_s", "s"},
	{"a_rate_per_s", "1/s"},
	{"b_rate_per_s", "1/s"},
	{"a_p50_ms", "ms"},
	{"a_tail_ms", "ms"},
	{"b_p50_ms", "ms"},
	{"b_tail_ms", "ms"},
	{"alloc_mb", "MB"},
	{"allocs_per_unit", "count"},
	{"peak_heap_mb", "MB"},
}

// perLayer is the metric set of --trace 1. A layer the workload does not
// exercise reports 0.
var perLayer = []unitMetric{
	{"core.evaluate_us", "us"},
	{"wavefront.schedule_ms", "ms"},
	{"wavefront.ops", "count"},
	{"wavefront.ns_per_op", "ns"},
	{"simmpi.run_s", "s"},
	{"simmpi.self_ns_per_event", "ns"},
	{"simmpi.reset_us", "us"},
	{"simmpi.events", "count"},
	{"simmpi.messages", "count"},
	{"simmpi.bytes_sent", "bytes"},
	{"des.group.windows", "count"},
	{"des.group.stalls_per_window", "ratio"},
	{"simnet.topology_ms", "ms"},
	{"simnet.bus_requests", "count"},
	{"simnet.bus_queued_ratio", "ratio"},
	{"simnet.bus_wait_us", "us"},
	{"topo.link_requests", "count"},
	{"topo.link_queued_ratio", "ratio"},
	{"campaign.expand_ms", "ms"},
	{"campaign.overhead_share", "ratio"},
	{"campaign.store_get_ns", "ns"},
	{"campaign.store_put_ns", "ns"},
	{"campaign.store_hit_ratio", "ratio"},
	{"campaign.encode_ns_per_row", "ns"},
	{"server.submit_ms", "ms"},
	{"server.status_ms", "ms"},
	{"server.results_ms", "ms"},
	{"server.poll_useful_ratio", "ratio"},
	{"server.retained_campaigns", "count"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
	{"self.bench_ms", "ms"},
	{"self.apps_ms", "ms"},
	{"self.config_ms", "ms"},
	{"self.grid_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.wavefront_ms", "ms"},
	{"self.simnet_ms", "ms"},
	{"self.simmpi_ms", "ms"},
	{"self.campaign_ms", "ms"},
	{"self.server_ms", "ms"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where the traced run writes its spans
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	problems          []string
	// metrics holds the values of the run's declared set (end-to-end or
	// per-layer) by name.
	metrics map[string]float64
	// named holds the workload's headline figures under the names the
	// repository's roadmap uses, e.g. events_per_s_2shards, for the report.
	named map[string]metric
	// notes carries anything else worth recording, e.g. the traffic mix.
	notes map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, named: map[string]metric{}, notes: map[string]any{}}
}

// fail counts one failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted check and fails it unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

func (o *outcome) name(n string, v float64, unit string) { o.named[n] = metric{v, unit} }

// addSelfTimes copies the tracer's per-layer self times into the metrics.
func (o *outcome) addSelfTimes(t *tracer) {
	for layer, ms := range t.selfTimes() {
		o.metrics["self."+layer+"_ms"] = ms
	}
	o.metrics["trace.spans"] = float64(len(t.spans))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"flagship": runFlagship,
	"rank16k":  runRank16k,
	"served":   runServed,
}

func main() {
	workload := flag.String("workload", "", "workload: flagship, rank16k or served")
	seed := flag.Int64("seed", 1, "seed of the workload's generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	writeRef := flag.String("write-ref", "", "run the flagship campaign once, write its reference rows to this file and exit")
	flag.Parse()
	runtime.GOMAXPROCS(busyThreads)

	if *writeRef != "" {
		if err := writeFlagshipRef(*writeRef); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --workload flagship|rank16k|served, --seconds > 0 and --trace 0|1"))
	}
	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = filepath.Join(".bench_build", "perfbench")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: outDir}
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	decl := endToEnd
	if cfg.trace {
		decl = perLayer
		for _, m := range perLayer {
			if _, ok := out.metrics[m.name]; !ok {
				out.metrics[m.name] = 0
			}
		}
	}
	if err := emit(os.Stdout, *workload, cfg, decl, out); err != nil {
		fatal(err)
	}
}

// emit prints the human-readable table, the report line and the result
// line, in that order.
func emit(w io.Writer, workload string, cfg runConfig, decl []unitMetric, out *outcome) error {
	if out.attempted < 1 {
		return fmt.Errorf("perfbench: %s attempted nothing", workload)
	}
	result := map[string]metric{}
	for _, m := range decl {
		v, ok := out.metrics[m.name]
		if !ok {
			return fmt.Errorf("perfbench: %s did not measure %s", workload, m.name)
		}
		result[m.name] = metric{v, m.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED CHECK:", p)
	}
	errRate := float64(out.failed) / float64(out.attempted)
	out.name("error_rate", errRate, "ratio")

	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, m := range decl {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", m.name, result[m.name].Value, m.unit)
	}
	names := make([]string, 0, len(out.named))
	for n := range out.named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", n, out.named[n].Value, out.named[n].Unit)
	}

	report := map[string]any{
		"workload": workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host": hostRecord(), "named": out.named, "notes": out.notes,
	}
	if err := writeLine(w, map[string]any{"report": report}); err != nil {
		return err
	}
	return writeLine(w, map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   result,
	})
}

func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// hostRecord describes where the numbers were measured, so a number
// from another machine is visibly not comparable.
func hostRecord() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root,
// skipping hidden directories such as the build directory. A checkout
// without version control still gets a stable identity this way.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
