package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cliflags"
	"repro/internal/hypothesis"
)

// TestFlagInventory pins hypoth's flag surface and checks the shared flags
// carry the shared registry's help text.
func TestFlagInventory(t *testing.T) {
	fs := flag.NewFlagSet("hypoth", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	sort.Strings(got)
	want := []string{"all", "list", "out", "run", "workers"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flag inventory drifted:\n got %v\nwant %v", got, want)
	}

	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	cliflags.RegisterWorkers(shared)
	if fs.Lookup("workers").Usage != shared.Lookup("workers").Usage {
		t.Error("-workers help text differs from the cliflags registry")
	}
}

// TestRunList: -list prints every builtin experiment ID.
func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, e := range hypothesis.Builtin() {
		if !strings.Contains(out.String(), e.ID) {
			t.Errorf("-list output lacks %q", e.ID)
		}
	}
}

// TestRunOne executes one cheap builtin experiment end to end and checks
// the report files and the stdout verdict line.
func TestRunOne(t *testing.T) {
	dir := t.TempDir()
	id := "strong-scaling-16-to-64"
	var out bytes.Buffer
	if err := run([]string{"-run", id, "-out", dir, "-workers", "2"}, &out); err != nil {
		t.Fatalf("run -run %s: %v", id, err)
	}
	if !strings.Contains(out.String(), id) || !strings.Contains(out.String(), "median") {
		t.Errorf("verdict line missing from output: %q", out.String())
	}
	for _, ext := range []string{".json", ".md"} {
		data, err := os.ReadFile(filepath.Join(dir, id+ext))
		if err != nil {
			t.Fatalf("report %s: %v", ext, err)
		}
		if len(data) == 0 {
			t.Errorf("report %s is empty", ext)
		}
	}
}

// TestRunErrors: the error paths return errors instead of exiting.
func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "no-such-id"}, &out); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown id: %v", err)
	}
	if err := run([]string{}, &out); err == nil {
		t.Error("no action flag accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}
