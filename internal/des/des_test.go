package des

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	var order []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		f.after(d, func() { order = append(order, d) })
	}
	end := e.Run()
	if end != 5 {
		t.Errorf("final time = %v", end)
	}
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events out of order: %v", order)
	}
	if e.EventsRun() != 5 {
		t.Errorf("EventsRun = %d", e.EventsRun())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		f.at(1.0, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	f := newFuncs(&e)
	var hits []float64
	f.after(1, func() {
		hits = append(hits, e.Now())
		f.after(2, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Errorf("hits = %v", hits)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
}

func TestResourceFCFS(t *testing.T) {
	var r Resource
	// Idle resource: no wait.
	if w := r.Acquire(0, 5); w != 0 {
		t.Errorf("first acquire wait = %v", w)
	}
	// Request at t=2 while busy until 5: waits 3.
	if w := r.Acquire(2, 5); w != 3 {
		t.Errorf("second acquire wait = %v, want 3", w)
	}
	// Now busy until 10; request at 12: no wait.
	if w := r.Acquire(12, 1); w != 0 {
		t.Errorf("third acquire wait = %v", w)
	}
	req, q, busy, waited := r.Stats()
	if req != 3 || q != 1 || busy != 11 || waited != 3 {
		t.Errorf("Stats = %d %d %v %v", req, q, busy, waited)
	}
	if r.FreeAt() != 13 {
		t.Errorf("FreeAt = %v", r.FreeAt())
	}
}

func TestResourcePanicsOnInvalid(t *testing.T) {
	var r Resource
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Acquire(1, -2)
}

func TestResourceConservationProperty(t *testing.T) {
	// For any sequence of time-ordered acquisitions, total busy time equals
	// the sum of durations and waits never decrease service order.
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, rr *rand.Rand) {
			n := rr.Intn(20) + 1
			ts := make([]float64, n)
			ds := make([]float64, n)
			now := 0.0
			for i := range ts {
				now += rr.Float64() * 3
				ts[i] = now
				ds[i] = rr.Float64() * 4
			}
			vals[0] = reflect.ValueOf(ts)
			vals[1] = reflect.ValueOf(ds)
		},
	}
	prop := func(ts, ds []float64) bool {
		var r Resource
		var sum float64
		lastStart := -1.0
		for i := range ts {
			w := r.Acquire(ts[i], ds[i])
			start := ts[i] + w
			if start < lastStart {
				return false // service must be FCFS
			}
			lastStart = start
			sum += ds[i]
		}
		_, _, busy, _ := r.Stats()
		return busy == sum
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		var e Engine
		f := newFuncs(&e)
		var log []float64
		rng := rand.New(rand.NewSource(7))
		var rec func(depth int)
		rec = func(depth int) {
			log = append(log, e.Now())
			if depth < 3 {
				for i := 0; i < 2; i++ {
					f.after(rng.Float64(), func() { rec(depth + 1) })
				}
			}
		}
		f.after(0, func() { rec(0) })
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTypedEventsDispatch(t *testing.T) {
	var e Engine
	type fired struct {
		kind Kind
		arg0 int32
		arg1 int32
		at   float64
	}
	var got []fired
	e.SetHandler(func(ev Event) {
		got = append(got, fired{ev.Kind, ev.Arg0, ev.Arg1, e.Now()})
	})
	e.AtKind(2, 7, 10, 20)
	e.AtKind(1, 3, -1, 0)
	e.Run()
	want := []fired{{3, -1, 0, 1}, {7, 10, 20, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch = %v, want %v", got, want)
	}
}

func TestTypedEventSeqMonotonic(t *testing.T) {
	var e Engine
	var seqs []uint64
	e.SetHandler(func(ev Event) {
		seqs = append(seqs, ev.Seq)
		if len(seqs) < 5 {
			e.AtKind(e.Now()+1, 1, 0, 0)
		}
	})
	e.AtKind(0, 1, 0, 0)
	e.Run()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("seq not monotonic: %v", seqs)
		}
	}
}

func TestAtKindPanicsOnReservedKind(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("expected panic for kind 0")
		}
	}()
	e.AtKind(1, 0, 0, 0)
}

func TestAtKindPanicsOnPast(t *testing.T) {
	var e Engine
	e.SetHandler(func(Event) {})
	e.AtKind(5, 1, 0, 0)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.AtKind(1, 1, 0, 0)
}

func TestTypedEventWithoutHandlerPanics(t *testing.T) {
	var e Engine
	e.AtKind(1, 1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic without handler")
		}
	}()
	e.Run()
}

// TestHeapStressOrdering drives the heap through thousands of random
// push/pop interleavings and checks strict (time, seq) pop order.
func TestHeapStressOrdering(t *testing.T) {
	var e Engine
	rng := rand.New(rand.NewSource(42))
	var lastTime float64
	var lastSeq uint64
	violations := 0
	e.SetHandler(func(ev Event) {
		if ev.Time < lastTime || (ev.Time == lastTime && ev.Seq <= lastSeq) {
			violations++
		}
		lastTime, lastSeq = ev.Time, ev.Seq
		// Keep the heap churning with bursts of future events.
		if e.EventsRun() < 5000 {
			for i := 0; i < rng.Intn(4); i++ {
				e.AtKind(e.Now()+rng.Float64()*3, 1, 0, 0)
			}
		}
	})
	for i := 0; i < 100; i++ {
		e.AtKind(rng.Float64(), 1, 0, 0)
	}
	e.Run()
	if violations != 0 {
		t.Errorf("%d ordering violations", violations)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Run", e.Pending())
	}
}

func TestEngineReset(t *testing.T) {
	var e Engine
	var order []int32
	e.SetHandler(func(ev Event) { order = append(order, ev.Arg0) })
	e.AtKind(2, 1, 0, 0)
	e.AtKind(1, 1, 1, 0)
	e.AtKind(3, 1, 99, 0)
	e.Run()

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.EventsRun() != 0 {
		t.Fatalf("reset engine not pristine: now=%v pending=%d ran=%d",
			e.Now(), e.Pending(), e.EventsRun())
	}
	// A reset engine replays the same schedule identically, handler intact.
	order = nil
	e.AtKind(2, 1, 0, 0)
	e.AtKind(1, 1, 1, 0)
	e.AtKind(3, 1, 99, 0)
	end := e.Run()
	if end != 3 || len(order) != 3 || order[0] != 1 || order[1] != 0 || order[2] != 99 {
		t.Errorf("replay after reset: end=%v order=%v", end, order)
	}
}

func TestEngineResetDropsAbandonedEvents(t *testing.T) {
	var e Engine
	e.SetHandler(func(ev Event) {
		if ev.Kind == 2 {
			t.Error("abandoned event fired")
		}
	})
	e.AtKind(1, 1, 0, 0)
	e.AtKind(5, 2, 0, 0)
	e.Step() // leaves the kind-2 event pending
	e.Reset()
	if e.Run() != 0 {
		t.Error("reset engine ran abandoned events")
	}
}
