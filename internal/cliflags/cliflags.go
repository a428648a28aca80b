// Package cliflags is the shared flag surface of the simulator commands.
// The observability knobs (-hist, -chrome-trace, -sample-every,
// -sample-out), the worker-pool knob (-workers) and the artifact writer used to emit trace and sample files had grown
// near-identical copies in cmd/campaign, cmd/sweepsim and cmd/campaignd;
// this package keeps one definition of each so every command spells the
// same flag the same way with the same help text. The profiling flags
// already have a shared home in internal/prof — register them alongside
// these with prof.Register.
package cliflags

import (
	"flag"
	"os"

	"repro/internal/obs"
)

// ObsFlags are the observability flags shared by the simulator commands.
type ObsFlags struct {
	// Hist attaches duration-histogram percentiles to results.
	Hist bool
	// ChromeTrace, if non-empty, is the Chrome trace-event timeline path.
	ChromeTrace string
	// SampleEvery, if positive, samples time-series metrics every Δt µs.
	SampleEvery float64
	// SampleOut is the CSV path -sample-every writes to.
	SampleOut string
}

// histUsage is the one help text of -hist, shared by RegisterObs and
// RegisterHist so every command documents the flag identically.
const histUsage = "attach duration-histogram percentiles (recv wait, message latency, link delay)"

// RegisterHist declares the standalone -hist flag on fs — for commands
// (campaignd) that collect histograms without the rest of the
// observability surface.
func RegisterHist(fs *flag.FlagSet) *bool {
	return fs.Bool("hist", false, histUsage)
}

// RegisterObs declares the shared observability flags on fs.
func RegisterObs(fs *flag.FlagSet) *ObsFlags {
	var o ObsFlags
	fs.BoolVar(&o.Hist, "hist", false, histUsage)
	fs.StringVar(&o.ChromeTrace, "chrome-trace", "", "write a Chrome trace-event timeline (load in Perfetto) to this file")
	fs.Float64Var(&o.SampleEvery, "sample-every", 0, "sample time-series metrics every Δt µs into -sample-out")
	fs.StringVar(&o.SampleOut, "sample-out", "samples.csv", "time-series CSV path for -sample-every")
	return &o
}

// Recording reports whether a flight recorder is needed: a timeline or
// time-series output was requested.
func (o *ObsFlags) Recording() bool {
	return o.ChromeTrace != "" || o.SampleEvery > 0
}

// Recorder builds the flight recorder the flags call for, or nil when no
// recording was requested. Histograms are not enabled here — campaign-style
// commands give every run its own histogram recorder instead.
func (o *ObsFlags) Recorder() *obs.Recorder {
	if !o.Recording() {
		return nil
	}
	return &obs.Recorder{Spans: true, Messages: true, Links: true}
}

// WriteArtifacts writes the timeline and sample artifacts the flags
// requested from rec, with paths transformed by pathFn (the identity when
// nil — campaign ranges use it to keep per-range artifacts apart).
func (o *ObsFlags) WriteArtifacts(rec *obs.Recorder, topt obs.TimelineOptions, pathFn func(string) string) error {
	if rec == nil {
		return nil
	}
	if pathFn == nil {
		pathFn = func(p string) string { return p }
	}
	if o.ChromeTrace != "" {
		if err := WriteArtifact(pathFn(o.ChromeTrace), func(f *os.File) error {
			return obs.WriteTimeline(f, rec, topt)
		}); err != nil {
			return err
		}
	}
	if o.SampleEvery > 0 {
		if err := WriteArtifact(pathFn(o.SampleOut), func(f *os.File) error {
			return obs.WriteSamples(f, rec, o.SampleEvery)
		}); err != nil {
			return err
		}
	}
	return nil
}

// RegisterWorkers declares the shared -workers flag on fs.
func RegisterWorkers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker pool size (default: GOMAXPROCS)")
}

// WriteArtifact creates path (parents included) and streams one artifact
// into it.
func WriteArtifact(path string, write func(*os.File) error) error {
	if err := obs.EnsureParent(path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
