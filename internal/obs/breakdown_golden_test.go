package obs_test

// Golden lock-down of the text renderers: the Gantt chart and the activity
// breakdown for a small LU run are pinned byte-for-byte, so any drift in
// span recording, profile accounting or the fixed-precision formatting
// shows up as a diff against testdata/lu_breakdown_golden.txt.
//
// To bless an intentional change:
//
//	go test ./internal/obs -run TestBreakdownGolden -update

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

// runSpans runs one iteration of bm over 4×4 ranks on a 16³ grid with a
// span recorder attached and returns the recorder, the result and the rank
// count.
func runSpans(t *testing.T, bm apps.Benchmark) (*obs.Recorder, simmpi.Result, int) {
	t.Helper()
	g := grid.Cube(16)
	dec := grid.MustDecompose(g, 4, 4)
	mach := machine.XT4()
	sched, err := bm.Schedule(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo := simnet.NewTopology(mach.Params, dec.P(), simnet.GridPlacement(dec, mach))
	rec := &obs.Recorder{Spans: true}
	sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	for r, p := range sched.Programs() {
		sim.SetProgram(r, p)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rec, res, dec.P()
}

func TestBreakdownGolden(t *testing.T) {
	const path = "testdata/lu_breakdown_golden.txt"
	rec, _, ranks := runSpans(t, apps.LU(grid.Cube(16)))
	spans := rec.SpanList()
	var buf bytes.Buffer
	obs.Gantt(&buf, spans, ranks, 72)
	buf.WriteByte('\n')
	obs.WriteBreakdown(&buf, obs.Profile(spans, ranks), 3)
	got := buf.Bytes()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rendered output drifted from golden; run with -update and explain the drift\ngot:\n%s\nwant:\n%s", got, want)
	}
}
