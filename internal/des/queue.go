package des

import (
	"cmp"
	"math/bits"
	"slices"
)

// radixQueue is the engine's pending-event queue: a monotone radix heap
// (Ahuja, Mehlhorn, Orlin & Tarjan 1990) over the 128-bit key formed by
// tbits (high word) and order (low word). It relies on the engine never
// scheduling into the past: every pushed key is at least the last popped
// one, and for the engine strictly greater, since order carries a fresh
// sequence number.
//
// Bucket b holds the pending events whose highest bit differing from the
// last popped key is bit b-1, i.e. b = bits.Len of (key XOR last); bucket 0
// holds keys equal to last. Every key in bucket b is smaller than every key
// in a higher bucket, so the minimum lives in the lowest non-empty bucket.
// Pop scans that bucket for its minimum, makes it the new last key and
// moves the rest into lower buckets, which are all empty at that moment.
// Each move lowers an event's bucket, so it moves at most 128 times over
// its life; in practice a few.
//
// The README's hold-model shootout raced it against the cache-aligned
// 4-ary heap it replaced and against calendar and ladder queues: it won at
// every size from 16K to 1M pending events, and at 1K lost only to the
// calendar queue on bimodal gaps, by 4%.
type radixQueue struct {
	last     heapEvent // last popped key; no pending key is below it
	n        int
	nonEmpty [3]uint64 // bit b set iff buckets[b] is non-empty
	buckets  [129][]heapEvent
}

func evLess(a, b heapEvent) bool {
	return a.tbits < b.tbits || (a.tbits == b.tbits && a.order < b.order)
}

func (q *radixQueue) len() int { return q.n }

// clear empties the queue, keeping every bucket's backing array.
func (q *radixQueue) clear() {
	for w, m := range q.nonEmpty {
		for ; m != 0; m &= m - 1 {
			b := w<<6 | bits.TrailingZeros64(m)
			q.buckets[b] = q.buckets[b][:0]
		}
	}
	q.last, q.n, q.nonEmpty = heapEvent{}, 0, [3]uint64{}
}

// bucket returns the bucket index of ev relative to the last popped key.
func (q *radixQueue) bucket(ev heapEvent) int {
	if x := ev.tbits ^ q.last.tbits; x != 0 {
		return 64 + bits.Len64(x)
	}
	return bits.Len64(ev.order ^ q.last.order)
}

func (q *radixQueue) add(b int, ev heapEvent) {
	q.buckets[b] = append(q.buckets[b], ev)
	q.nonEmpty[b>>6] |= 1 << (b & 63)
}

// push inserts ev. A key below the last popped one would break the bucket
// invariant, and only an engine scheduling into the past produces one.
func (q *radixQueue) push(ev heapEvent) {
	if evLess(ev, q.last) {
		panic("des: event key below the last popped key")
	}
	q.add(q.bucket(ev), ev)
	q.n++
}

// first returns the index of the lowest non-empty bucket. The queue must
// not be empty.
func (q *radixQueue) first() int {
	if m := q.nonEmpty[0]; m != 0 {
		return bits.TrailingZeros64(m)
	}
	if m := q.nonEmpty[1]; m != 0 {
		return 64 | bits.TrailingZeros64(m)
	}
	return 128
}

// minIndex returns the position of the smallest key in s.
func minIndex(s []heapEvent) int {
	mi := 0
	for i := 1; i < len(s); i++ {
		if evLess(s[i], s[mi]) {
			mi = i
		}
	}
	return mi
}

// top returns the minimum pending event without removing it. It leaves the
// last popped key alone, so events may still be pushed anywhere at or above
// that key — including below the returned one. The queue must not be
// empty.
func (q *radixQueue) top() heapEvent {
	s := q.buckets[q.first()]
	return s[minIndex(s)]
}

// pop removes and returns the minimum pending event. The queue must not be
// empty.
func (q *radixQueue) pop() heapEvent {
	b := q.first()
	s := q.buckets[b]
	q.n--
	if b == 0 {
		// Bucket 0 holds only copies of the last popped key.
		q.buckets[0] = s[:len(s)-1]
		if len(s) == 1 {
			q.nonEmpty[0] &^= 1
		}
		return s[len(s)-1]
	}
	mi := minIndex(s)
	min := s[mi]
	q.last = min
	s[mi] = s[len(s)-1]
	for _, ev := range s[:len(s)-1] {
		q.add(q.bucket(ev), ev)
	}
	q.buckets[b] = s[:0]
	q.nonEmpty[b>>6] &^= 1 << (b & 63)
	return min
}

// radixQueue3 is the pending-event queue of canonically ordered events
// (Engine.AtPriCtx): the radix heap of radixQueue over the 128-bit key
// formed by tbits and ctx, with the order word (pri, slot) breaking ties.
// The pair (tbits, ctx) is monotone within one engine: AtPriCtx rejects a
// time below the clock and, at the current time, a ctx below that of the
// executing event, and an inline event at the current time carries ctx =
// now, which is at least the executing event's ctx. Only the order word may
// fall below the last popped one.
//
// So bucket 0 holds the events whose (tbits, ctx) equals the last popped
// pair, kept sorted by order, descending: a refill sorts it once, a push
// into it inserts by binary search, and a pop takes its last element. A
// wavefront step puts thousands of events on one key, which a linear
// minimum scan of bucket 0 would visit quadratically often.
type radixQueue3 struct {
	last     heapEvent3 // (tbits, ctx) of the last popped key; order unused
	n        int
	nonEmpty [3]uint64 // bit b set iff buckets[b] is non-empty
	buckets  [129][]heapEvent3
}

// keyLess orders canonical events by (tbits, ctx) alone.
func keyLess(a, b heapEvent3) bool {
	return a.tbits < b.tbits || (a.tbits == b.tbits && a.ctx < b.ctx)
}

func (q *radixQueue3) len() int { return q.n }

// clear empties the queue, keeping every bucket's backing array.
func (q *radixQueue3) clear() {
	for w, m := range q.nonEmpty {
		for ; m != 0; m &= m - 1 {
			b := w<<6 | bits.TrailingZeros64(m)
			q.buckets[b] = q.buckets[b][:0]
		}
	}
	q.last, q.n, q.nonEmpty = heapEvent3{}, 0, [3]uint64{}
}

// release drops the bucket arrays of an empty queue. They hold about ten
// times the peak pending count, which an idle engine need not keep.
func (q *radixQueue3) release() {
	if q.n == 0 {
		*q = radixQueue3{}
	}
}

// bucket returns the bucket index of ev relative to the last popped key.
func (q *radixQueue3) bucket(ev heapEvent3) int {
	if x := ev.tbits ^ q.last.tbits; x != 0 {
		return 64 + bits.Len64(x)
	}
	return bits.Len64(ev.ctx ^ q.last.ctx)
}

func (q *radixQueue3) add(b int, ev heapEvent3) {
	q.buckets[b] = append(q.buckets[b], ev)
	q.nonEmpty[b>>6] |= 1 << (b & 63)
}

// push inserts ev. A (tbits, ctx) pair below the last popped one would
// break the bucket invariant; AtPriCtx rejects every call that makes one.
func (q *radixQueue3) push(ev heapEvent3) {
	if keyLess(ev, q.last) {
		panic("des: canonical event key below the last popped key")
	}
	q.n++
	b := q.bucket(ev)
	if b != 0 {
		q.add(b, ev)
		return
	}
	// Binary search for the first element with a smaller order word.
	s := q.buckets[0]
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m].order > ev.order {
			lo = m + 1
		} else {
			hi = m
		}
	}
	s = append(s, heapEvent3{})
	copy(s[lo+1:], s[lo:])
	s[lo] = ev
	q.buckets[0] = s
	q.nonEmpty[0] |= 1
}

// first returns the index of the lowest non-empty bucket. The queue must
// not be empty.
func (q *radixQueue3) first() int {
	if m := q.nonEmpty[0]; m != 0 {
		return bits.TrailingZeros64(m)
	}
	if m := q.nonEmpty[1]; m != 0 {
		return 64 | bits.TrailingZeros64(m)
	}
	return 128
}

// minKeyIndex returns the position of a smallest (tbits, ctx) pair in s.
func minKeyIndex(s []heapEvent3) int {
	mi := 0
	for i := 1; i < len(s); i++ {
		if keyLess(s[i], s[mi]) {
			mi = i
		}
	}
	return mi
}

// top returns the minimum pending event without removing it. Like
// radixQueue.top it leaves the last popped key alone, so events may still
// be pushed below the returned one: the sharded scheduler peeks past a
// window and then injects the barrier's events. The queue must not be
// empty.
func (q *radixQueue3) top() heapEvent3 {
	b := q.first()
	s := q.buckets[b]
	if b == 0 {
		return s[len(s)-1]
	}
	min := s[0]
	for _, ev := range s[1:] {
		if ev3Less(ev, min) {
			min = ev
		}
	}
	return min
}

// refill makes key the last popped pair and moves bucket b, the lowest
// non-empty one, into the lower buckets; the events equal to key land in
// bucket 0, which is then sorted by order, descending.
func (q *radixQueue3) refill(b int, key heapEvent3) {
	q.last = heapEvent3{tbits: key.tbits, ctx: key.ctx}
	s := q.buckets[b]
	q.buckets[b] = s[:0]
	q.nonEmpty[b>>6] &^= 1 << (b & 63)
	for _, ev := range s {
		q.add(q.bucket(ev), ev)
	}
	if z := q.buckets[0]; len(z) > 1 {
		slices.SortFunc(z, func(a, b heapEvent3) int { return cmp.Compare(b.order, a.order) })
	}
}

// popZero removes the minimum of bucket 0, which must not be empty.
func (q *radixQueue3) popZero() heapEvent3 {
	s := q.buckets[0]
	ev := s[len(s)-1]
	q.buckets[0] = s[:len(s)-1]
	if len(s) == 1 {
		q.nonEmpty[0] &^= 1
	}
	q.n--
	return ev
}

// pop removes and returns the minimum pending event. The queue must not be
// empty.
func (q *radixQueue3) pop() heapEvent3 {
	if b := q.first(); b != 0 {
		s := q.buckets[b]
		q.refill(b, s[minKeyIndex(s)])
	}
	return q.popZero()
}

// popBefore removes and returns the minimum pending event if its tbits is
// below limit, with one scan of the lowest bucket. Otherwise it reports
// false and, like top, leaves the last popped key alone.
func (q *radixQueue3) popBefore(limit uint64) (heapEvent3, bool) {
	if q.n == 0 {
		return heapEvent3{}, false
	}
	if b := q.first(); b != 0 {
		s := q.buckets[b]
		min := s[minKeyIndex(s)]
		if min.tbits >= limit {
			return heapEvent3{}, false
		}
		q.refill(b, min)
	} else if q.last.tbits >= limit {
		return heapEvent3{}, false
	}
	return q.popZero(), true
}
