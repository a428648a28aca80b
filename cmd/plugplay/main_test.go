package main

// End-to-end pin of the plug-and-play workflow: the model sweep, the
// simulator validation and the per-rank Gantt chart for the example spec
// (testdata/app.json, the output of -example) are compared byte-for-byte
// against testdata/simulate_gantt_golden.txt.
//
// To bless an intentional change:
//
//	go test ./cmd/plugplay -run TestSimulateGanttGolden -update

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSimulateGanttGolden(t *testing.T) {
	const path = "testdata/simulate_gantt_golden.txt"
	var out bytes.Buffer
	if err := run([]string{"-f", "testdata/app.json", "-p", "16", "-simulate", "-gantt"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.Bytes()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from golden; run with -update and explain the drift\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExampleRoundTrip: the -example spec is the golden's input.
func TestExampleRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-example"}, &out); err != nil {
		t.Fatalf("run -example: %v", err)
	}
	want, err := os.ReadFile("testdata/app.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-example output differs from testdata/app.json:\n%s", out.Bytes())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); !errors.Is(err, errUsage) {
		t.Errorf("no -f: %v, want usage error", err)
	}
	err := run([]string{"-f", "testdata/app.json", "-p", "16,x"}, &out)
	if err == nil || !strings.Contains(err.Error(), "invalid syntax") {
		t.Errorf("bad -p: %v", err)
	}
}
