// Command replay re-executes a recorded op trace (internal/replay) and
// diffs the result against the recording bit for bit — the determinism
// gate for the simulator: same ops on the same machine description must
// yield the same virtual time, event count and traffic, to the last
// bit, on any host.
//
// Usage:
//
//	replay -in trace.jsonl [-out replayed.jsonl] [-quiet]
//
// With -out the replay re-records itself to a new trace file; when the
// replay matches the recording, the two files are byte-identical (the
// CI round-trip smoke cmp's them). A result mismatch prints the
// diverging fields and exits 1.
//
// Record traces with `sweepsim -record-trace trace.jsonl`.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/replay"
)

func main() {
	in := flag.String("in", "", "trace file to replay (required)")
	out := flag.String("out", "", "re-record the replay to this trace file")
	quiet := flag.Bool("quiet", false, "suppress per-run output")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "replay: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	check(err)
	hdr, ops, err := replay.Read(f)
	check(err)
	check(f.Close())

	var rec *obs.Recorder
	if *out != "" {
		rec = &obs.Recorder{Ops: true}
	}
	res, err := replay.Replay(hdr, ops, replay.Options{Rec: rec})
	check(err)

	if !*quiet {
		label := hdr.App
		if hdr.Workload != "" {
			label += " / " + hdr.Workload
		}
		fmt.Printf("replayed:  %s (%d ranks, %dx%d)\n", label, hdr.Ranks(), hdr.DecN, hdr.DecM)
		fmt.Printf("simulated: %.1f µs, %d events, %d messages, %d bytes\n",
			res.Time, res.Events, res.Sends, res.BytesSent)
	}

	if rec != nil {
		check(obs.EnsureParent(*out))
		of, err := os.Create(*out)
		check(err)
		check(replay.Write(of, hdr.WithResult(res), rec))
		check(of.Close())
		if !*quiet {
			fmt.Printf("re-recorded: %s\n", *out)
		}
	}

	if diffs := replay.Diff(hdr, res); diffs != nil {
		fmt.Fprintln(os.Stderr, "replay: result diverged from the recording:")
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "  "+d)
		}
		os.Exit(1)
	}
	if !*quiet {
		fmt.Println("result:    bit-identical to the recording")
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}
