package des

import "math"

// Kind identifies the dispatch target of a typed event. Packages built on
// the engine define their own kinds starting at 1 and receive them through
// the Handler installed with SetHandler. Kind 0, the zero value, is never
// valid: scheduling it panics, so an unset kind fails loudly.
type Kind uint16

// Event is a typed event record as delivered to a Handler. Scheduling one
// performs no heap allocation (beyond amortised growth of the engine's
// backing arrays) and no interface boxing.
//
// Time and Seq order execution: events fire in (Time, Seq) order, Seq being
// the global scheduling sequence number, which makes same-time events fire
// in the order they were scheduled and simulations bit-for-bit
// reproducible.
//
// Kind, Arg0 and Arg1 are opaque to the engine: the simulation built on
// top encodes its state-machine transition in Kind and small operands
// (a rank index, a pooled-object index) in the args.
type Event struct {
	Time float64
	Seq  uint64
	Kind Kind
	Arg0 int32
	Arg1 int32
}

// Handler dispatches typed events. Exactly one handler serves an engine;
// it switches on ev.Kind.
type Handler func(ev Event)

// The queued representation is a 16-byte key pair; the event's
// {kind, arg0, arg1} payload lives in a side pool addressed by the slot
// index packed into the low bits of the order word. Keeping the queue
// records this small makes every move a single 16-byte copy and every
// comparison two uint64 compares.
//
// tbits is math.Float64bits of the (non-negative) timestamp; for t ≥ 0 the
// IEEE-754 bit pattern is monotone in t, so ordering by tbits as a uint64
// equals ordering by time while avoiding float-compare NaN handling in the
// innermost loop. order is seq<<slotBits | slot: seq is unique per event,
// so ordering by the packed word equals ordering by seq alone, and the
// slot rides along for free.
type heapEvent struct {
	tbits uint64
	order uint64
}

const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	// maxSeq bounds the scheduling sequence number so seq<<slotBits cannot
	// overflow: about 1.1e12 events, far beyond any simulation here.
	maxSeq = 1<<(64-slotBits) - 1
)

func (ev heapEvent) time() float64 { return math.Float64frombits(ev.tbits) }

// payload is the per-pending-event typed record in the engine's side pool.
type payload struct {
	kind       Kind
	arg0, arg1 int32
}
