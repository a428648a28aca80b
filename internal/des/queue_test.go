package des

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func mkEvent(t float64, seq uint64) heapEvent {
	return heapEvent{tbits: math.Float64bits(t), order: seq<<slotBits | (seq & slotMask)}
}

// radixHarness drives a radix queue and a sorted-slice reference through
// the same operations and fails on the first disagreement.
type radixHarness struct {
	t   testing.TB
	q   radixQueue
	ref []heapEvent // sorted ascending by key
	now float64     // time of the last popped event
	seq uint64
}

func (h *radixHarness) pushKey(ev heapEvent) {
	h.q.push(ev)
	i := sort.Search(len(h.ref), func(i int) bool { return evLess(ev, h.ref[i]) })
	h.ref = slices.Insert(h.ref, i, ev)
}

func (h *radixHarness) push(tm float64) {
	h.seq++
	h.pushKey(mkEvent(tm, h.seq))
}

func (h *radixHarness) top() heapEvent {
	h.t.Helper()
	if h.q.len() != len(h.ref) {
		h.t.Fatalf("len %d, reference has %d", h.q.len(), len(h.ref))
	}
	want := h.ref[0]
	if got := h.q.top(); got != want {
		h.t.Fatalf("top = (%v,%#x), want (%v,%#x)", got.time(), got.order, want.time(), want.order)
	}
	return want
}

func (h *radixHarness) pop() {
	h.t.Helper()
	want := h.top()
	if got := h.q.pop(); got != want {
		h.t.Fatalf("pop = (%v,%#x), want (%v,%#x)", got.time(), got.order, want.time(), want.order)
	}
	h.ref = h.ref[1:]
	h.now = want.time()
}

func (h *radixHarness) drain() {
	h.t.Helper()
	for len(h.ref) > 0 {
		h.pop()
	}
	if h.q.len() != 0 {
		h.t.Fatalf("drained queue reports len %d", h.q.len())
	}
}

func (h *radixHarness) clear() {
	h.q.clear()
	h.ref = h.ref[:0]
	h.now = 0
}

// step applies operation op with parameter u ∈ [0, 1).
func (h *radixHarness) step(op int, u float64) {
	switch op {
	case 0, 1: // near future
		h.push(h.now + 3*u)
	case 2: // far-future burst
		for i := 0; i < int(8*u); i++ {
			h.push(h.now + 50 + 1000*float64(i)*u)
		}
	case 3: // duplicate timestamps: the sequence number breaks the tie
		tm := h.now + u
		h.push(tm)
		h.push(tm)
	case 4: // zero delay
		h.push(h.now)
	case 5: // peek, then schedule below the peeked event
		if len(h.ref) > 0 {
			top := h.top().time()
			h.push(h.now + u*(top-h.now))
		}
	case 6: // an exact copy of the minimum key
		if len(h.ref) > 0 {
			h.pushKey(h.ref[0])
		}
	default:
		if len(h.ref) > 0 {
			h.pop()
		}
	}
}

// TestRadixQueueMatchesReference drives the radix queue through randomized
// push/pop interleavings and demands the exact (time, order) sequence of a
// sorted slice, before and after reuse through clear.
func TestRadixQueueMatchesReference(t *testing.T) {
	h := &radixHarness{t: t}
	rng := rand.New(rand.NewSource(11))
	for pass := 0; pass < 3; pass++ {
		for round := 0; round < 5000; round++ {
			h.step(rng.Intn(9), rng.Float64())
		}
		h.drain()
		for i := 0; i < 500; i++ {
			h.push(h.now + 10*rng.Float64())
		}
		if pass == 1 {
			h.clear() // abandon the pending events
		} else {
			h.drain()
		}
	}
}

// TestQueueHoldModel runs the classic hold model (pop one, push one at a
// random increment) at a steady-state size of 3000 events.
func TestQueueHoldModel(t *testing.T) {
	h := &radixHarness{t: t}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		h.push(100 * rng.Float64())
	}
	for i := 0; i < 20000; i++ {
		h.pop()
		h.push(h.now + rng.ExpFloat64())
	}
	h.drain()
}

func TestRadixQueuePanicsBelowLastPopped(t *testing.T) {
	for _, below := range []heapEvent{
		mkEvent(1, 5),                          // earlier time
		{tbits: math.Float64bits(2), order: 1}, // same time, smaller order
		{tbits: 0, order: math.MaxUint64 >> 1}, // time zero
	} {
		var q radixQueue
		q.push(mkEvent(2, 3))
		q.push(mkEvent(4, 4))
		q.pop()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push of (%v,%#x) below the last popped key did not panic", below.time(), below.order)
				}
			}()
			q.push(below)
		}()
	}
}

// FuzzRadixOrder reads each input byte as one queue operation (low bits)
// and its parameter (high bits), then drains the queue, checking every
// top and pop against the sorted-slice reference.
func FuzzRadixOrder(f *testing.F) {
	f.Add([]byte{0, 8, 16, 255, 7, 7, 7})
	f.Add([]byte{2, 250, 5, 13, 3, 3, 8, 8, 4, 6, 14, 7, 15})
	f.Add([]byte{6, 1, 6, 6, 7, 7, 5, 5, 7, 4, 4, 4, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := &radixHarness{t: t}
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
