package simmpi_test

// Golden-equivalence tests: the typed-event, pooled, ring-buffered
// simulator must produce bit-identical results to the original
// closure-based implementation. The constants below were recorded by
// running the seed implementation (commit e3c8b9b, container/heap closure
// events) on LU, Sweep3D and Chimaera over a 96³ grid at 256 ranks on the
// XT4 machine model; floats are hex literals so the comparison is exact to
// the last bit. Any change to event timing, scheduling order or the
// (time, seq) tiebreak shows up here as a hard failure.

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simmpi"
)

type goldenResult struct {
	time        float64
	sends       uint64
	recvs       uint64
	bytesSent   uint64
	events      uint64
	busWait     float64
	busBusy     float64
	busRequests uint64
	busQueued   uint64
}

func runGolden(t *testing.T, bm apps.Benchmark) simmpi.Result {
	t.Helper()
	g := grid.Cube(96)
	dec := grid.MustDecompose(g, 16, 16)
	mach := machine.XT4()
	res, err := bm.WithIterations(1).Simulate(new(simmpi.Sim), mach, dec, simmpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkGolden(t *testing.T, res simmpi.Result, want goldenResult) {
	t.Helper()
	if res.Time != want.time {
		t.Errorf("Time = %x, want %x", res.Time, want.time)
	}
	if res.Sends != want.sends {
		t.Errorf("Sends = %d, want %d", res.Sends, want.sends)
	}
	if res.Recvs != want.recvs {
		t.Errorf("Recvs = %d, want %d", res.Recvs, want.recvs)
	}
	if res.BytesSent != want.bytesSent {
		t.Errorf("BytesSent = %d, want %d", res.BytesSent, want.bytesSent)
	}
	if res.Events != want.events {
		t.Errorf("Events = %d, want %d", res.Events, want.events)
	}
	if res.BusWait != want.busWait {
		t.Errorf("BusWait = %x, want %x", res.BusWait, want.busWait)
	}
	if res.BusBusy != want.busBusy {
		t.Errorf("BusBusy = %x, want %x", res.BusBusy, want.busBusy)
	}
	if res.BusRequests != want.busRequests {
		t.Errorf("BusRequests = %d, want %d", res.BusRequests, want.busRequests)
	}
	if res.BusQueued != want.busQueued {
		t.Errorf("BusQueued = %d, want %d", res.BusQueued, want.busQueued)
	}
}

func TestGoldenLU(t *testing.T) {
	checkGolden(t, runGolden(t, apps.LU(grid.Cube(96))), goldenResult{
		time:        0x1.78c5a4ebdd2ebp+13, // 12056.705527999866 µs
		sends:       114240,
		recvs:       114240,
		bytesSent:   44236800,
		events:      524417,
		busWait:     0x1.6bf91a57411e4p+20,
		busBusy:     0x1.2e5c02f2f9846p+18,
		busRequests: 167552,
		busQueued:   32323,
	})
}

func TestGoldenSweep3D(t *testing.T) {
	checkGolden(t, runGolden(t, apps.Sweep3D(grid.Cube(96), 2)), goldenResult{
		time:        0x1.ef532e2b8c5d7p+14, // 31700.795087998584 µs
		sends:       184320,
		recvs:       184320,
		bytesSent:   106168320,
		events:      786943,
		busWait:     0x1.7fc9dd462ec73p+16,
		busBusy:     0x1.eb6db940fed65p+18,
		busRequests: 270336,
		busQueued:   88180,
	})
}

func TestGoldenChimaera(t *testing.T) {
	checkGolden(t, runGolden(t, apps.Chimaera(grid.Cube(96), 1)), goldenResult{
		time:        0x1.9ea68f2becda1p+15, // 53075.2796319977 µs
		sends:       368640,
		recvs:       368640,
		bytesSent:   176947200,
		events:      1573117,
		busWait:     0x1.52587dc728fap+17,
		busBusy:     0x1.e99a95421bf21p+19,
		busRequests: 540672,
		busQueued:   174002,
	})
}

// TestGoldenRepeatable runs the same configuration twice and demands
// byte-identical results — the same-seed reproducibility the engine's
// (time, seq) ordering guarantees.
func TestGoldenRepeatable(t *testing.T) {
	a := runGolden(t, apps.Sweep3D(grid.Cube(96), 2))
	b := runGolden(t, apps.Sweep3D(grid.Cube(96), 2))
	if a.Time != b.Time || a.Events != b.Events || a.BusWait != b.BusWait {
		t.Errorf("re-run diverged: %v vs %v", a, b)
	}
	for i := range a.RankFinish {
		if a.RankFinish[i] != b.RankFinish[i] {
			t.Fatalf("rank %d finish diverged: %x vs %x", i, a.RankFinish[i], b.RankFinish[i])
		}
	}
}

// TestAllocsPerEvent enforces the allocation budget of the hot path:
// below 0.5 heap allocations per executed event, setup included. The seed
// implementation sat at ~3.5 allocs/event; the pooled typed-event engine
// runs at ~0.01.
func TestAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	g := grid.Cube(64)
	bm := apps.Sweep3D(g, 2).WithIterations(1)
	mach := machine.XT4()
	dec := grid.MustDecompose(g, 16, 16)
	var events uint64
	run := func() {
		res, err := bm.Simulate(new(simmpi.Sim), mach, dec, simmpi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		events = res.Events
	}
	allocs := testing.AllocsPerRun(2, run)
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocs / %d events = %.4f allocs/event", allocs, events, perEvent)
	if perEvent >= 0.5 {
		t.Errorf("allocation budget blown: %.4f allocs/event, want < 0.5", perEvent)
	}
}
