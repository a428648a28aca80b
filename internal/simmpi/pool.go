package simmpi

import (
	"slices"

	"repro/internal/des"
)

// This file holds the allocation-free bookkeeping of the simulator's hot
// path: free-list pools of message and receive-request records addressed
// by index, per-rank flat channel tables, and ring-buffer channel queues
// stored in one slab.
//
// Messages and receive requests are referenced everywhere by int32 pool
// index (and carried through the event queue in Event.Arg0), never by
// pointer, so scheduling and matching perform zero heap allocations once
// the pools and rings reach steady-state size.

// none marks an empty index reference (no matched receive, no message).
const none int32 = -1

// message is a pooled in-flight message record.
type message struct {
	readyAt    float64 // valid once ready
	sendAt     float64 // sender's op start; set unconditionally (no branch)
	src, dst   int32
	bytes      int32
	ch         int32 // owning channel index (satellite: unlink takes no map lookup)
	recv       int32 // matched recvReq pool index, or none
	rendezvous bool
	ready      bool // data fully available at the receiver
	rtsArrived bool // rendezvous: request-to-send reached the receiver
	ctsIssued  bool // rendezvous: clear-to-send was generated
}

// recvReq is a pooled posted-receive record. Completion always navigates
// message→request (message.recv), never the reverse, so the request does
// not point back at its message.
type recvReq struct {
	postAt float64
	rank   int32 // receiving rank
}

func (s *Sim) allocMsg() int32 {
	return des.AllocSlot(&s.msgs, &s.msgFree, message{recv: none})
}

func (s *Sim) freeMsg(i int32) { s.msgFree = append(s.msgFree, i) }

func (s *Sim) allocReq() int32 {
	return des.AllocSlot(&s.reqs, &s.reqFree, recvReq{})
}

func (s *Sim) freeReq(i int32) { s.reqFree = append(s.reqFree, i) }

// port is one entry of a rank's flat channel table: the peer rank and the
// index of the channel in the Sim's channel slice.
type port struct {
	peer int32
	ch   int32
}

// chanIndex returns the channel carrying src→dst traffic, creating it on
// first use. Wavefront ranks talk to at most four neighbours, so the
// per-rank table is a handful of entries and a linear scan beats any map:
// no hashing, no per-lookup allocation, one cache line.
func (s *Sim) chanIndex(src, dst int32) int32 {
	out := s.ranks[src].out
	for i := range out {
		if out[i].peer == dst {
			return out[i].ch
		}
	}
	ci := int32(len(s.channels))
	s.channels = append(s.channels, channel{})
	s.ranks[src].out = append(out, port{peer: dst, ch: ci})
	return ci
}

// channel is the per-(src, dst) pair of FIFO queues: unmatched or
// in-flight messages in sent order, and posted unmatched receives in post
// order.
type channel struct {
	msgs  ring // message pool indices
	recvs ring // recvReq pool indices
}

// unlink removes a completed message from its channel's queue. Because a
// rank's receives are blocking, matches claim messages in FIFO order and
// at most one claimed message is in flight per channel, so the completed
// message is the queue head and removal is O(1); the ordered-remove
// fallback is defensive only.
func (s *Sim) unlink(ch *channel, mi int32) {
	if ch.msgs.n > 0 && ch.msgs.at(s.slab, 0) == mi {
		ch.msgs.popFront(s.slab)
		return
	}
	ch.msgs.remove(s.slab, mi)
}

// ring is a growable circular FIFO of pool indices. Its elements live in
// a region of the Sim's slab, so the tens of thousands of rings a
// large run creates share one growing array instead of each allocating its
// own. The region's size is zero or a power of two, so position wrap-around
// is a mask. Growing a ring moves it to a fresh region at the end of the
// slab; the old region stays unused until Sim.reset empties the slab, which
// at most doubles the slab over the rings' live sizes.
type ring struct {
	off  int32 // region start in the slab
	size int32 // region length
	head int32
	n    int32
}

// at returns the k-th element from the front, 0 ≤ k < n.
func (q *ring) at(slab []int32, k int32) int32 {
	return slab[q.off+((q.head+k)&(q.size-1))]
}

func (q *ring) set(slab []int32, k, v int32) {
	slab[q.off+((q.head+k)&(q.size-1))] = v
}

func (q *ring) pushBack(slab *[]int32, v int32) {
	if q.n == q.size {
		q.grow(slab)
	}
	q.set(*slab, q.n, v)
	q.n++
}

func (q *ring) popFront(slab []int32) int32 {
	v := q.at(slab, 0)
	q.head = (q.head + 1) & (q.size - 1)
	q.n--
	return v
}

// remove deletes the first occurrence of v, preserving FIFO order.
func (q *ring) remove(slab []int32, v int32) {
	for k := int32(0); k < q.n; k++ {
		if q.at(slab, k) != v {
			continue
		}
		for j := k; j+1 < q.n; j++ {
			q.set(slab, j, q.at(slab, j+1))
		}
		q.n--
		return
	}
}

// grow moves the ring to a region of twice its size at the end of the slab.
func (q *ring) grow(slab *[]int32) {
	size := 2 * q.size
	if size == 0 {
		size = 4
	}
	off := int32(len(*slab))
	s := slices.Grow(*slab, int(size))[:int(off+size)]
	*slab = s
	for k := int32(0); k < q.n; k++ {
		s[off+k] = q.at(s, k)
	}
	q.off, q.size, q.head = off, size, 0
}
