package des

import "math/bits"

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
