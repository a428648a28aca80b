package des

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// collect installs a recording handler and returns the log slice pointer.
func collect(e *Engine) *[]Event {
	var log []Event
	e.SetHandler(func(ev Event) { log = append(log, ev) })
	return &log
}

func TestCanonicalOrderByTimeCtxPri(t *testing.T) {
	var e Engine
	log := collect(&e)
	// Scheduled deliberately out of canonical order: the engine must fire
	// by (time, ctx, pri), never by scheduling order.
	e.AtPriCtx(2, 1, 5, 1, 0, 0) // third: latest time
	e.AtPriCtx(1, 1, 9, 1, 1, 0) // second: same (t, ctx), larger pri
	e.AtPriCtx(1, 1, 2, 1, 2, 0) // first
	e.Run()
	if len(*log) != 3 {
		t.Fatalf("ran %d events", len(*log))
	}
	want := []int32{2, 1, 0}
	for i, ev := range *log {
		if ev.Arg0 != want[i] {
			t.Fatalf("order %v, want args %v", *log, want)
		}
	}
}

func TestCanonicalCtxBreaksTies(t *testing.T) {
	var e Engine
	log := collect(&e)
	// Same time, pri order opposing ctx order: ctx must dominate.
	e.AtPriCtx(5, 3, 1, 1, 0, 0) // later context, smaller pri
	e.AtPriCtx(5, 2, 9, 1, 1, 0) // earlier context wins despite larger pri
	e.Run()
	if (*log)[0].Arg0 != 1 || (*log)[1].Arg0 != 0 {
		t.Fatalf("ctx did not dominate pri: %v", *log)
	}
}

func TestAtPriUsesCurrentTimeAsContext(t *testing.T) {
	var e Engine
	var ctxs []float64
	e.SetHandler(func(ev Event) {
		ctxs = append(ctxs, e.CurCtx())
		if ev.Arg0 == 0 {
			// Scheduled from now=1: the child must carry ctx 1 and lose
			// the same-time tie against a pri-0 rival from context 2.
			e.AtPri(4, 7, 1, 10, 0)
		}
		if ev.Arg0 == 1 {
			e.AtPri(4, 0, 1, 11, 0)
		}
	})
	e.AtPriCtx(1, 0, 0, 1, 0, 0)
	e.AtPriCtx(2, 0, 1, 1, 1, 0)
	e.Run()
	// Execution: arg0@1 (ctx 0), arg1@2 (ctx 0), arg10@4 (ctx 1), arg11@4 (ctx 2).
	want := []float64{0, 0, 1, 2}
	if len(ctxs) != len(want) {
		t.Fatalf("ran %d events", len(ctxs))
	}
	for i, c := range ctxs {
		if c != want[i] {
			t.Fatalf("CurCtx sequence %v, want %v", ctxs, want)
		}
	}
}

// canonHarness drives a radixQueue3 and a sorted-slice reference through
// the same operations and fails on the first disagreement. Every push keeps
// the queue's contract: (time, ctx) is never below the last popped pair.
type canonHarness struct {
	t       testing.TB
	q       radixQueue3
	ref     []heapEvent3 // sorted ascending by ev3Less
	now     float64      // time of the last popped event
	ctx     float64      // ctx of the last popped event
	id, rng uint64
}

func newCanonHarness(t testing.TB) *canonHarness { return &canonHarness{t: t, rng: 1} }

// rand returns a deterministic pseudo-random value in [0, n) (xorshift).
func (h *canonHarness) rand(n uint64) uint64 {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng % n
}

// push queues an event at (tm, ctx) with priority pri; a unique id in the
// slot bits keeps every key distinct.
func (h *canonHarness) push(tm, ctx float64, pri uint64) {
	h.t.Helper()
	if tm < h.now || ctx < 0 || ctx > tm || (tm == h.now && ctx < h.ctx) {
		h.t.Fatalf("harness broke the contract: (%v, %v) after (%v, %v)", tm, ctx, h.now, h.ctx)
	}
	h.id++
	ev := heapEvent3{tbits: math.Float64bits(tm), ctx: math.Float64bits(ctx), order: pri<<slotBits | h.id&slotMask}
	h.q.push(ev)
	i, _ := slices.BinarySearchFunc(h.ref, ev, func(a, b heapEvent3) int {
		if ev3Less(a, b) {
			return -1
		}
		if ev3Less(b, a) {
			return 1
		}
		return 0
	})
	h.ref = slices.Insert(h.ref, i, ev)
}

func (h *canonHarness) check(op string, got, want heapEvent3) {
	h.t.Helper()
	if got != want {
		h.t.Fatalf("%s = (%v,%v,%#x), want (%v,%v,%#x)", op,
			got.time(), math.Float64frombits(got.ctx), got.order,
			want.time(), math.Float64frombits(want.ctx), want.order)
	}
}

func (h *canonHarness) top() heapEvent3 {
	h.t.Helper()
	if h.q.len() != len(h.ref) {
		h.t.Fatalf("len %d, reference has %d", h.q.len(), len(h.ref))
	}
	h.check("top", h.q.top(), h.ref[0])
	return h.ref[0]
}

func (h *canonHarness) popped(ev heapEvent3) {
	h.ref = h.ref[1:]
	h.now, h.ctx = ev.time(), math.Float64frombits(ev.ctx)
}

func (h *canonHarness) pop() {
	h.t.Helper()
	want := h.top()
	h.check("pop", h.q.pop(), want)
	h.popped(want)
}

// runBefore pops every event earlier than limit, as Engine.RunBefore does,
// without peeking first.
func (h *canonHarness) runBefore(limit float64) {
	h.t.Helper()
	for {
		got, ok := h.q.popBefore(math.Float64bits(limit))
		if len(h.ref) == 0 || h.ref[0].time() >= limit {
			if ok {
				h.t.Fatalf("popBefore(%v) popped (%v,%#x) past the limit", limit, got.time(), got.order)
			}
			return
		}
		if !ok {
			h.t.Fatalf("popBefore(%v) stopped before (%v,%#x)", limit, h.ref[0].time(), h.ref[0].order)
		}
		h.check("popBefore", got, h.ref[0])
		h.popped(got)
	}
}

func (h *canonHarness) drain() {
	h.t.Helper()
	for len(h.ref) > 0 {
		h.pop()
	}
	if h.q.len() != 0 {
		h.t.Fatalf("drained queue reports len %d", h.q.len())
	}
}

func (h *canonHarness) clear() {
	h.q.clear()
	h.ref = h.ref[:0]
	h.now, h.ctx = 0, 0
}

// step applies operation op with parameter u ∈ [0, 1). Times and contexts
// are quantised so that exact (time, ctx) ties are common.
func (h *canonHarness) step(op int, u float64) {
	q := func(x float64) float64 { return math.Floor(4*x) / 4 }
	switch op {
	case 0, 1: // inline event: ctx is the current time
		h.push(h.now+q(3*u), h.now, h.rand(16))
	case 2: // burst on one future (time, ctx) key
		tm := h.now + 1 + q(4*u)
		for i := 0; i < 1+int(16*u); i++ {
			h.push(tm, h.now, h.rand(64))
		}
	case 3: // zero delay into the current key, any priority
		h.push(h.now, h.ctx, h.rand(16))
	case 4: // barrier injection: a later time, an earlier context
		h.push(h.now+1+q(u), q(u*h.now), h.rand(16))
	case 5: // peek, then schedule at or below the peeked event
		if len(h.ref) > 0 {
			top := h.top().time()
			tm := h.now + q(u*(top-h.now))
			ctx := h.now
			if tm == h.now {
				ctx = math.Max(h.ctx, q(u*h.now))
			}
			h.push(tm, ctx, h.rand(16))
		}
	case 6: // a bounded run
		h.runBefore(h.now + q(3*u))
	default:
		if len(h.ref) > 0 {
			h.pop()
		}
	}
}

// TestCanonicalHeapStress drives radixQueue3 through large interleaved
// push/pop sequences with clustered keys and demands the exact (time, ctx,
// pri) order of a sorted slice, before and after reuse through clear.
func TestCanonicalHeapStress(t *testing.T) {
	h := newCanonHarness(t)
	rng := rand.New(rand.NewSource(5))
	for pass := 0; pass < 3; pass++ {
		for round := 0; round < 20000; round++ {
			h.step(rng.Intn(9), rng.Float64())
		}
		if pass == 1 {
			h.clear() // abandon the pending events
		} else {
			h.drain()
		}
	}

	t.Run("same-key burst", func(t *testing.T) {
		// One wavefront step puts thousands of events on one (time, ctx)
		// key; they must come out by priority, around later events.
		h := newCanonHarness(t)
		h.push(1, 0, 0)
		h.pop()
		for i := 0; i < 8192; i++ {
			h.push(3, 1, h.rand(1<<20))
			if i%64 == 0 {
				h.push(3+float64(i%3), 1+float64(i%2), h.rand(1<<20))
			}
		}
		for i := 0; i < 4096; i++ {
			h.pop()
			if i%97 == 0 {
				h.push(3, 3, h.rand(1<<20)) // inline from the current time
			}
		}
		h.runBefore(3.5)
		h.drain()
	})

	t.Run("zero-delay smaller priority", func(t *testing.T) {
		// A handler schedules into its own (time, ctx) key with a smaller
		// priority than its own: that event is next, ahead of the key's
		// larger priorities.
		h := newCanonHarness(t)
		for _, pri := range []uint64{10, 20, 30} {
			h.push(2, 2, pri)
		}
		h.pop() // pri 10
		for _, pri := range []uint64{5, 1, 25, 15} {
			h.push(2, 2, pri)
			h.pop()
		}
		h.drain()
	})
}

// FuzzCanonicalOrder reads each input byte as one queue operation (low
// bits) and its parameter (high bits), then drains the queue, checking
// every top, pop and bounded pop against the sorted-slice reference.
func FuzzCanonicalOrder(f *testing.F) {
	f.Add([]byte{0, 9, 18, 255, 8, 8, 8})
	f.Add([]byte{2, 254, 3, 3, 12, 8, 21, 7, 6, 60, 5, 14, 4, 8})
	f.Add([]byte{11, 29, 3, 30, 8, 3, 8, 12, 5, 23, 6, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := newCanonHarness(t)
		for _, b := range ops {
			if b == 0xff {
				h.clear()
				continue
			}
			h.step(int(b%9), float64(b/9)/29)
		}
		h.drain()
	})
}

func TestCanonicalMixedWithSequencePanics(t *testing.T) {
	var e Engine
	collect(&e)
	e.AtPri(1, 0, 1, 0, 0)
	e.AtKind(1, 1, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("mixed canonical and sequence-ordered events did not panic")
		}
	}()
	e.Run()
}

func TestAtPriCtxRejectsBadArguments(t *testing.T) {
	cases := []struct {
		name string
		call func(e *Engine)
		want string // in the panic message
	}{
		{"past time", func(e *Engine) { e.AtPriCtx(0.5, 0, 0, 1, 0, 0) }, "into the past"},
		{"ctx after t", func(e *Engine) { e.AtPriCtx(2, 3, 0, 1, 0, 0) }, "outside"},
		{"negative ctx", func(e *Engine) { e.AtPriCtx(2, -1, 0, 1, 0, 0) }, "outside"},
		{"NaN ctx", func(e *Engine) { e.AtPriCtx(2, math.NaN(), 0, 1, 0, 0) }, "outside"},
		{"reserved kind", func(e *Engine) { e.AtPriCtx(2, 0, 0, 0, 0, 0) }, "kind 0"},
		{"oversized pri", func(e *Engine) { e.AtPriCtx(2, 0, maxPri+1, 1, 0, 0) }, "priority"},
		// The executing event fired at time 1 with ctx 0.5; a ctx of 0.25 at
		// time 1 would sort before it.
		{"current time ctx below executing event", func(e *Engine) { e.AtPriCtx(1, 0.25, 0, 1, 0, 0) },
			"below the executing event's context"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e Engine
			collect(&e)
			e.AtPriCtx(1, 0.5, 0, 1, 0, 0)
			e.Run() // now = 1, CurCtx = 0.5
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s accepted", tc.name)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not name %q", msg, tc.want)
				}
			}()
			tc.call(&e)
		})
	}
}

func TestCanonicalRunBoundsAndPending(t *testing.T) {
	var e Engine
	log := collect(&e)
	e.AtPri(1, 0, 1, 0, 0)
	e.AtPri(2, 0, 1, 1, 0)
	e.AtPri(3, 0, 1, 2, 0)
	if n := e.Pending(); n != 3 {
		t.Fatalf("Pending = %d, want 3", n)
	}
	if tt, ok := e.NextEventTime(); !ok || tt != 1 {
		t.Fatalf("NextEventTime = %v, %v", tt, ok)
	}
	e.RunBefore(2) // strictly-before: runs only t=1
	if len(*log) != 1 {
		t.Fatalf("RunBefore(2) ran %d events", len(*log))
	}
	e.RunBefore(2.5) // runs t=2
	if len(*log) != 2 || e.Now() != 2 {
		t.Fatalf("RunBefore(2.5): %d events, now=%v", len(*log), e.Now())
	}
	e.Run()
	if len(*log) != 3 || e.Pending() != 0 {
		t.Fatalf("drain: %d events, %d pending", len(*log), e.Pending())
	}
}

func TestResetClearsCanonicalState(t *testing.T) {
	var e Engine
	collect(&e)
	e.AtPriCtx(1, 0, 0, 1, 0, 0)
	e.AtPriCtx(5, 2, 0, 1, 1, 0)
	e.RunBefore(2)
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 || e.CurCtx() != 0 {
		t.Fatalf("Reset left pending=%d now=%v ctx=%v", e.Pending(), e.Now(), e.CurCtx())
	}
	// The reset engine must accept either ordering mode afresh.
	log := collect(&e)
	e.AtKind(1, 1, 7, 0)
	e.Run()
	if len(*log) != 1 || (*log)[0].Arg0 != 7 {
		t.Fatalf("reset engine run: %v", *log)
	}
}
