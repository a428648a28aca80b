package des

import (
	"reflect"
	"testing"
)

// A simulation that stops early (a deadlock, a panic recovered by the
// caller) leaves its engine with events still pending and payload slots
// still occupied. This pins the contract that a Reset after such a
// partial run yields an engine whose next run is bit-identical to a fresh
// engine's.

// traceRun schedules a fixed workload (same-time ties, nested scheduling)
// and runs it to completion, returning the execution trace and final state.
func traceRun(e *Engine, trace *[]Event) (end float64, ran uint64) {
	e.SetHandler(func(ev Event) {
		*trace = append(*trace, ev)
		if ev.Kind == 2 && ev.Arg0 < 3 {
			e.AtKind(e.Now()+0.5, 2, ev.Arg0+1, ev.Arg1)
		}
	})
	e.AtKind(1, 2, 0, 7)
	e.AtKind(1, 3, 0, 0) // same-time tie: must fire after the kind-2 event
	e.AtKind(2, 99, 0, 0)
	e.AtKind(4, 4, 5, 5)
	return e.Run(), e.EventsRun()
}

// TestResetAfterPartialRunIsBitIdentical: after a partial run that leaves
// events pending, Reset yields a run identical to a fresh engine's.
func TestResetAfterPartialRunIsBitIdentical(t *testing.T) {
	var fresh Engine
	var want []Event
	wantEnd, wantRan := traceRun(&fresh, &want)

	var e Engine
	e.SetHandler(func(Event) {})
	for i := int32(0); i < 8; i++ {
		e.AtKind(float64(i), 2, i, 0)
	}
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if e.EventsRun() != 5 || e.Pending() != 3 {
		t.Fatalf("partial run executed %d events with %d pending, want 5 and 3", e.EventsRun(), e.Pending())
	}
	e.Reset()

	var got []Event
	gotEnd, gotRan := traceRun(&e, &got)
	if gotEnd != wantEnd || gotRan != wantRan || !reflect.DeepEqual(got, want) {
		t.Fatalf("re-run after a partial run and Reset diverged (end=%v ran=%d)", gotEnd, gotRan)
	}
}
