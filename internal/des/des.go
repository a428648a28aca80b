// Package des provides a minimal deterministic discrete-event simulation
// engine: a virtual clock, a priority queue of timestamped events, and a
// first-come-first-served resource used to model shared hardware such as a
// node's memory bus (paper Section 4.3).
//
// # Event model
//
// The hot path is allocation-free: events are typed value records
// ({Time, Seq, Kind, Arg0, Arg1}, see Event) stored directly in a concrete
// monotone radix queue — no closures, no container/heap interface boxing —
// and dispatched through a single Handler installed with SetHandler. The
// queue exploits the engine never scheduling into the past: (time, seq)
// keys only ever increase past the last executed event. A simulation
// encodes each state-machine transition as a Kind and small integer
// operands (a rank index, a pooled-object index) in the args.
//
// There is one event order: (time, seq). Events scheduled for the same
// virtual time fire in the order they were scheduled, which makes
// simulations bit-for-bit reproducible.
package des

import (
	"fmt"
	"math"
)

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     float64
	seq     uint64
	ran     uint64
	handler Handler
	events  radixQueue
	pay     []payload // pending-event payloads, indexed by order slot
	payFree []int32
}

// AllocSlot pops an index off a free list (resetting that record) or
// appends a fresh one. It is the one free-list allocator behind every
// index-addressed pool in the engine and the simulations built on it.
func AllocSlot[T any](items *[]T, free *[]int32, reset T) int32 {
	if n := len(*free); n > 0 {
		i := (*free)[n-1]
		*free = (*free)[:n-1]
		(*items)[i] = reset
		return i
	}
	*items = append(*items, reset)
	return int32(len(*items) - 1)
}

// pushEvent allocates a payload slot and queues the 16-byte key.
func (e *Engine) pushEvent(t float64, k Kind, arg0, arg1 int32) {
	slot := AllocSlot(&e.pay, &e.payFree, payload{kind: k, arg0: arg0, arg1: arg1})
	if slot > slotMask {
		panic("des: too many pending events")
	}
	e.seq++
	if e.seq > maxSeq {
		panic("des: event sequence number overflow")
	}
	t += 0.0 // normalise -0 so the bit-pattern ordering matches float order
	e.events.push(heapEvent{tbits: math.Float64bits(t), order: e.seq<<slotBits | uint64(slot)})
}

// Reset returns the engine to its initial state — clock at zero, no
// pending events, fresh sequence numbering — while retaining the installed
// handler and the capacity of the event queue and payload pool. A reset
// engine behaves bit-identically to a newly constructed one, so a long-lived
// engine can serve back-to-back simulations without reallocating.
func (e *Engine) Reset() {
	e.now, e.seq, e.ran = 0, 0, 0
	e.events.clear()
	e.pay, e.payFree = e.pay[:0], e.payFree[:0]
}

// Now returns the current virtual time in microseconds.
func (e *Engine) Now() float64 { return e.now }

// EventsRun returns the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending returns the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return e.events.len() }

// SetHandler installs the dispatcher for typed events. It must be set
// before the first event fires.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// AtKind schedules a typed event at absolute virtual time t, which must not
// be in the past. The kind must be non-zero (see Kind); it is delivered to
// the Handler with the given args.
func (e *Engine) AtKind(t float64, k Kind, arg0, arg1 int32) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling into the past (t=%v, now=%v)", t, e.now))
	}
	if k == 0 {
		panic("des: event kind 0 is invalid")
	}
	e.pushEvent(t, k, arg0, arg1)
}

// Step executes the next event, if any, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.events.len() == 0 {
		return false
	}
	ev := e.events.pop()
	slot := int32(ev.order & slotMask)
	p := e.pay[slot]
	e.payFree = append(e.payFree, slot)
	e.now = ev.time()
	e.ran++
	if e.handler == nil {
		panic(fmt.Sprintf("des: typed event kind %d with no handler installed", p.kind))
	}
	e.handler(Event{Time: e.now, Seq: ev.order >> slotBits, Kind: p.kind, Arg0: p.arg0, Arg1: p.arg1})
	return true
}

// Run executes events until none remain and returns the final virtual time.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// Resource models a single FCFS server (e.g. a node's shared memory bus).
// Requests occupy the resource for a fixed duration in arrival order; a
// request arriving while the resource is busy is queued and experiences
// waiting time. Resource tracks aggregate utilisation statistics so that
// experiments can report contention.
type Resource struct {
	freeAt   float64
	busyTime float64
	waits    float64
	requests uint64
	queued   uint64
}

// Acquire reserves the resource for duration dur starting no earlier than
// now. It returns the waiting time the request experienced before service
// began (zero when the resource was idle).
func (r *Resource) Acquire(now, dur float64) (wait float64) {
	if dur < 0 || now < 0 {
		panic(fmt.Sprintf("des: invalid resource acquisition now=%v dur=%v", now, dur))
	}
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	wait = start - now
	r.freeAt = start + dur
	r.busyTime += dur
	r.waits += wait
	r.requests++
	if wait > 0 {
		r.queued++
	}
	return wait
}

// FreeAt returns the virtual time at which the resource next becomes idle.
func (r *Resource) FreeAt() float64 { return r.freeAt }

// Stats returns aggregate counters: total requests, requests that queued,
// total busy time and total waiting time.
func (r *Resource) Stats() (requests, queued uint64, busy, waited float64) {
	return r.requests, r.queued, r.busyTime, r.waits
}
