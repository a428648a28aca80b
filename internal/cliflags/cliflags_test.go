package cliflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestSharedFlagSurface: every command registering through this package
// gets the same spellings, and the parsed values land where they should.
func TestSharedFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := RegisterObs(fs)
	workers := RegisterWorkers(fs)

	for _, name := range []string{"hist", "chrome-trace", "sample-every", "sample-out", "workers"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	err := fs.Parse([]string{
		"-hist", "-chrome-trace=tl.json", "-sample-every=5", "-sample-out=s.csv",
		"-workers=6",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Hist || o.ChromeTrace != "tl.json" || o.SampleEvery != 5 || o.SampleOut != "s.csv" {
		t.Errorf("obs flags parsed as %+v", *o)
	}
	if *workers != 6 {
		t.Errorf("workers=%d", *workers)
	}
	if !o.Recording() {
		t.Error("Recording() false with -chrome-trace set")
	}
	rec := o.Recorder()
	if rec == nil || !rec.Spans || !rec.Messages || !rec.Links {
		t.Errorf("Recorder() = %+v", rec)
	}
}

func TestRecorderNilWithoutRecordingFlags(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	o := RegisterObs(fs)
	if err := fs.Parse([]string{"-hist"}); err != nil {
		t.Fatal(err)
	}
	if o.Recording() || o.Recorder() != nil {
		t.Error("-hist alone must not build a flight recorder")
	}
}

func TestWriteArtifactCreatesParents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "artifact.txt")
	err := WriteArtifact(path, func(f *os.File) error {
		_, err := f.WriteString("x")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "x" {
		t.Errorf("artifact content %q, err %v", b, err)
	}
}

func TestRangePath(t *testing.T) {
	for _, tc := range []struct {
		in       string
		lo, hi   int
		expected string
	}{
		{"trace.json", 60, 120, "trace.60-120.json"},
		{"out/samples.csv", 0, 6, "out/samples.0-6.csv"},
		{"noext", 1, 2, "noext.1-2"},
	} {
		if got := obs.RangePath(tc.in, tc.lo, tc.hi); got != tc.expected {
			t.Errorf("RangePath(%q,%d,%d) = %q, want %q", tc.in, tc.lo, tc.hi, got, tc.expected)
		}
	}
}
