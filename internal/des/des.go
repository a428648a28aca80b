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
// keys, and the (time, ctx) keys of canonically ordered events, only ever
// increase past the last executed event. A simulation
// encodes each state-machine transition as a Kind and small integer
// operands (a rank index, a pooled-object index) in the args.
//
// Events scheduled for the same virtual time fire in the order they were
// scheduled, which makes simulations bit-for-bit reproducible.
package des

import (
	"fmt"
	"math"
)

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     float64
	curCtx  float64 // scheduling-context time of the executing canonical event
	seq     uint64
	ran     uint64
	handler Handler
	events  radixQueue
	events3 radixQueue3 // canonically ordered events (AtPri / AtPriCtx)
	pay     []payload   // pending-event payloads, indexed by order slot
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
// handler and the capacity of the event queues and payload pools. A reset
// engine behaves bit-identically to a newly constructed one, so a long-lived
// engine can serve back-to-back simulations without reallocating.
func (e *Engine) Reset() {
	e.now, e.curCtx, e.seq, e.ran = 0, 0, 0, 0
	e.events.clear()
	e.events3.clear()
	e.pay, e.payFree = e.pay[:0], e.payFree[:0]
}

// Now returns the current virtual time in microseconds.
func (e *Engine) Now() float64 { return e.now }

// EventsRun returns the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending returns the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return e.events.len() + e.events3.len() }

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

// maxPri bounds the explicit same-time priority of AtPriCtx so
// pri<<slotBits cannot collide with the slot index bits.
const maxPri = 1<<(64-slotBits) - 1

// AtPriCtx schedules a typed event under the canonical order: events fire
// in (time, ctx, pri) order instead of (time, sequence) order. ctx is the
// virtual time of the scheduling context — the timestamp of the event whose
// handler is scheduling this one — and pri is a content-derived priority of
// at most 40 bits (maxPri) breaking the remaining ties.
//
// The canonical order exists for the conservative parallel scheduler
// (Group). Sequence numbers are a global scheduling-order counter that a
// barrier-injected cross-shard event cannot reproduce; (ctx, pri) carries
// the same information piecewise: sequence order always refines
// context-time order (an engine executes events in time order, so earlier
// contexts schedule first), and a priority derived purely from event
// content is identical however the event reached the engine. A simulation
// whose same-context same-time ties are broken consistently by pri
// therefore fires events in exactly the same order on one engine or many.
//
// An event at the current time must not carry a ctx below that of the
// executing event (CurCtx): the pair (time, ctx) never falls below the last
// executed one, which is what lets a radix queue hold canonical events. An
// inline event (AtPri) has ctx = now, at least the executing event's ctx,
// and the sharded scheduler injects its barrier events at or after the
// window end, past every event a shard executed in the window, so simmpi
// never breaks the rule.
//
// Canonical and sequence-ordered events must not be mixed in one run: an
// engine with pending events from both APIs panics on Step.
func (e *Engine) AtPriCtx(t, ctx float64, pri uint64, k Kind, arg0, arg1 int32) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling into the past (t=%v, now=%v)", t, e.now))
	}
	if ctx < 0 || ctx > t || math.IsNaN(ctx) {
		panic(fmt.Sprintf("des: scheduling context %v outside [0, %v]", ctx, t))
	}
	if t == e.now && ctx < e.curCtx {
		panic(fmt.Sprintf("des: event at the current time %v with context %v below the executing event's context %v", t, ctx, e.curCtx))
	}
	if k == 0 {
		panic("des: event kind 0 is invalid")
	}
	if pri > maxPri {
		panic(fmt.Sprintf("des: event priority %#x exceeds %d bits", pri, 64-slotBits))
	}
	slot := AllocSlot(&e.pay, &e.payFree, payload{kind: k, arg0: arg0, arg1: arg1})
	if slot > slotMask {
		panic("des: too many pending events")
	}
	t += 0.0   // normalise -0 so the bit-pattern ordering matches float order
	ctx += 0.0 // likewise
	e.events3.push(heapEvent3{
		tbits: math.Float64bits(t),
		ctx:   math.Float64bits(ctx),
		order: pri<<slotBits | uint64(slot),
	})
}

// AtPri is AtPriCtx with the current event as the scheduling context — the
// form used for all inline scheduling; only barrier-injected events need an
// explicit ctx.
func (e *Engine) AtPri(t float64, pri uint64, k Kind, arg0, arg1 int32) {
	e.AtPriCtx(t, e.now, pri, k, arg0, arg1)
}

// CurCtx returns the scheduling-context time of the canonical event being
// executed — the ctx it was scheduled with. Handlers that defer part of an
// event's effect to a later replay (the parallel link replay) use it to
// reconstruct the event's position in the canonical order.
func (e *Engine) CurCtx() float64 { return e.curCtx }

// Step executes the next event, if any, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.events3.len() > 0 {
		e.fireCanonical(e.events3.pop())
		return true
	}
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

// fireCanonical executes a canonically ordered event (AtPriCtx) just
// removed from the queue.
func (e *Engine) fireCanonical(ev heapEvent3) {
	if e.events.len() > 0 {
		panic("des: canonical (AtPriCtx) and sequence-ordered (AtKind) events pending in one engine")
	}
	slot := int32(ev.order & slotMask)
	p := e.pay[slot]
	e.payFree = append(e.payFree, slot)
	e.now = ev.time()
	e.curCtx = math.Float64frombits(ev.ctx)
	e.ran++
	if e.handler == nil {
		panic(fmt.Sprintf("des: typed event kind %d with no handler installed", p.kind))
	}
	e.handler(Event{Time: e.now, Seq: ev.order >> slotBits, Kind: p.kind, Arg0: p.arg0, Arg1: p.arg1})
}

// Run executes events until none remain and returns the final virtual time.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// NextEventTime returns the timestamp of the earliest pending event across
// both orderings, or ok == false when no events are pending.
func (e *Engine) NextEventTime() (t float64, ok bool) {
	if e.events3.len() > 0 {
		return e.events3.top().time(), true
	}
	if e.events.len() > 0 {
		return e.events.top().time(), true
	}
	return 0, false
}

// RunBefore executes events with timestamps strictly less than t and leaves
// the clock at the last executed event. It never advances the clock
// artificially, so events delivered later for times in [now, t)
// remain schedulable — the property the sharded scheduler (Group) relies on
// when it injects cross-shard events at window barriers.
func (e *Engine) RunBefore(t float64) {
	if !(t > 0) {
		return // event times are non-negative
	}
	limit := math.Float64bits(t)
	for {
		if e.events3.len() > 0 {
			// One bounded pop per event: a peek and a pop would scan the
			// lowest bucket twice.
			ev, ok := e.events3.popBefore(limit)
			if !ok {
				return
			}
			e.fireCanonical(ev)
			continue
		}
		if e.events.len() == 0 || e.events.top().tbits >= limit {
			return
		}
		e.Step()
	}
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
