// Command hypoth runs controlled experiments over the campaign engine:
// paired baseline/treatment campaigns differing in exactly one
// machine-checked dimension, executed across multiple workload seeds with
// standing invariant checks, rendered into confirm/refute reports.
//
// Usage:
//
//	hypoth -list
//	hypoth -run <id> [-out DIR] [-workers N]
//	hypoth -all [-out DIR] [-workers N]
//
// Each experiment writes <out>/<id>.json and <out>/<id>.md; -all also
// writes the <out>/README.md index. Reports contain only deterministic
// content, so the files are byte-identical for every -workers setting —
// CI regenerates the committed hypotheses/ directory and diffs it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cliflags"
	"repro/internal/hypothesis"
)

// hypothFlags is the command's flag surface; registration is separated
// from run so tests can pin the inventory against the shared cliflags
// registry.
type hypothFlags struct {
	list    *bool
	runID   *string
	all     *bool
	out     *string
	workers *int
}

func registerFlags(fs *flag.FlagSet) hypothFlags {
	return hypothFlags{
		list:    fs.Bool("list", false, "list the builtin experiments and exit"),
		runID:   fs.String("run", "", "run one builtin experiment by id"),
		all:     fs.Bool("all", false, "run the whole builtin suite and write the index"),
		out:     fs.String("out", "hypotheses", "directory the reports are written to"),
		workers: cliflags.RegisterWorkers(fs),
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hypoth:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hypoth", flag.ContinueOnError)
	f := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *f.list:
		return list(out)
	case *f.runID != "":
		e, ok := hypothesis.BuiltinByID(*f.runID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *f.runID)
		}
		_, err := execute(out, *f.out, hypothesis.Config{Workers: *f.workers}, e)
		return err
	case *f.all:
		cfg := hypothesis.Config{Workers: *f.workers}
		var reports []*hypothesis.Report
		for _, e := range hypothesis.Builtin() {
			rep, err := execute(out, *f.out, cfg, e)
			if err != nil {
				return err
			}
			reports = append(reports, rep)
		}
		if err := writeReport(filepath.Join(*f.out, "README.md"), func(w *os.File) error {
			return hypothesis.WriteIndex(w, reports)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d reports and the index to %s\n", len(reports), *f.out)
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("one of -list, -run or -all is required")
	}
}

// list prints the builtin suite.
func list(out io.Writer) error {
	for _, e := range hypothesis.Builtin() {
		fmt.Fprintf(out, "%-40s %-16s %-10s %-9s %s\n", e.ID, e.Family, e.Metric, e.Direction, e.Title)
	}
	return nil
}

// execute runs one experiment and writes its JSON and Markdown reports.
func execute(out io.Writer, dir string, cfg hypothesis.Config, e hypothesis.Experiment) (*hypothesis.Report, error) {
	rep, err := hypothesis.Run(e, cfg)
	if err != nil {
		return nil, err
	}
	if err := writeReport(filepath.Join(dir, e.ID+".json"), func(f *os.File) error {
		return rep.WriteJSON(f)
	}); err != nil {
		return nil, err
	}
	if err := writeReport(filepath.Join(dir, e.ID+".md"), func(f *os.File) error {
		return rep.WriteMarkdown(f)
	}); err != nil {
		return nil, err
	}
	inv := "invariants pass"
	if !rep.InvariantsPass() {
		inv = "INVARIANTS VIOLATED"
	}
	fmt.Fprintf(out, "%-40s %-13s median %+.2f%%  %s\n", e.ID, rep.Verdict, rep.Effect.Median*100, inv)
	return rep, nil
}

// writeReport creates path (parents included) and streams one report into
// it.
func writeReport(path string, write func(*os.File) error) error {
	return cliflags.WriteArtifact(path, write)
}
