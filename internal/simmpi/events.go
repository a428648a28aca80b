package simmpi

// This file is the simulator's event-kind state machine. Each stage of a
// message's lifetime that the seed implementation expressed as a nested
// closure is one typed event kind here; Event.Arg0 carries the rank index
// (evResume, evComm) or the message pool index (all others).
//
// Events sharing a timestamp fire in scheduling order, the engine's
// (time, seq) tiebreak. Every kind fires at exactly the virtual time its
// closure predecessor did and events are scheduled in the same relative
// order, so results are bit-identical to the closure implementation (see
// golden_test.go).

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/logp"
	"repro/internal/obs"
)

// Event kinds. The des engine rejects kind 0 (see des.Kind), so they start
// at 1.
const (
	// evResume unblocks rank Arg0, whose local clock was set when the
	// event was scheduled, and advances its program.
	evResume des.Kind = iota + 1
	// evComm starts rank Arg0's pending communication op at its local time.
	evComm
	// evDeliver marks message Arg0's data available at the receiver at the
	// event time (eager arrival or DMA completion).
	evDeliver
	// evEagerInject is the off-node eager injection point: the sender-side
	// bus is acquired and the wire flight to the receiver begins.
	evEagerInject
	// evEagerArrive is the off-node eager arrival: the receiver-side bus
	// is acquired and the message becomes ready.
	evEagerArrive
	// evChipDMA starts an on-chip large-message DMA through the node's
	// shared bus.
	evChipDMA
	// evRTS is the rendezvous request-to-send arriving at the receiver.
	evRTS
	// evCTS is the rendezvous clear-to-send arriving back at the sender.
	evCTS
	// evRdvInject is the rendezvous data injection after the handshake.
	evRdvInject
	// evRdvArrive is the rendezvous data arrival at the receiver.
	evRdvArrive
)

// handle dispatches every typed event of the simulation.
func (s *Sim) handle(ev des.Event) {
	switch ev.Kind {
	case evResume:
		s.advance(&s.ranks[ev.Arg0])

	case evComm:
		r := &s.ranks[ev.Arg0]
		s.execComm(r, r.pending)

	case evDeliver:
		s.deliver(ev.Arg0, s.eng.Now())

	case evEagerInject:
		// Table 1(a) eq (1) continued: sender-side bus, then wire flight.
		// With an interconnect attached the flight additionally routes over
		// contended links (zero extra on the flat wire — bit-identical).
		m := &s.msgs[ev.Arg0]
		p := &s.par
		inject := s.eng.Now()
		wait := s.topo.AcquireBus(int(m.src), inject, int(m.bytes))
		start := inject + wait
		start += s.topo.AcquireLinks(int(m.src), int(m.dst), start, int(m.bytes))
		arrive := start + float64(m.bytes)*p.G + p.L
		s.eng.AtKind(arrive, evEagerArrive, ev.Arg0, 0)

	case evEagerArrive:
		m := &s.msgs[ev.Arg0]
		arrive := s.eng.Now()
		w2 := s.topo.AcquireBus(int(m.dst), arrive, int(m.bytes))
		s.deliver(ev.Arg0, arrive+w2)

	case evChipDMA:
		// Table 1(b) eq (6) continued: DMA via the shared bus.
		m := &s.msgs[ev.Arg0]
		start := s.eng.Now()
		wait := s.topo.AcquireBus(int(m.src), start, int(m.bytes))
		s.resumeAt(&s.ranks[m.src], start+wait)
		ready := start + wait + float64(m.bytes)*s.par.Gdma
		s.eng.AtKind(ready, evDeliver, ev.Arg0, 0)

	case evRTS:
		s.msgs[ev.Arg0].rtsArrived = true
		s.maybeHandshake(ev.Arg0)

	case evCTS:
		inject := s.eng.Now() + s.par.H + s.par.O
		s.eng.AtKind(inject, evRdvInject, ev.Arg0, 0)

	case evRdvInject:
		m := &s.msgs[ev.Arg0]
		p := &s.par
		inject := s.eng.Now()
		wait := s.topo.AcquireBus(int(m.src), inject, int(m.bytes))
		s.resumeAt(&s.ranks[m.src], inject+wait)
		start := inject + wait
		start += s.topo.AcquireLinks(int(m.src), int(m.dst), start, int(m.bytes))
		arrive := start + float64(m.bytes)*p.G + p.L
		s.eng.AtKind(arrive, evRdvArrive, ev.Arg0, 0)

	case evRdvArrive:
		m := &s.msgs[ev.Arg0]
		arrive := s.eng.Now()
		w2 := s.topo.AcquireBus(int(m.dst), arrive, int(m.bytes))
		ready := arrive + w2
		m.ready = true
		m.readyAt = ready
		req := m.recv
		resume := ready + s.par.O
		s.resumeAt(&s.ranks[s.reqs[req].rank], resume)
		if s.hists != nil {
			s.hists.RecvWait.Observe(resume - s.reqs[req].postAt)
			s.hists.MsgLatency.Observe(ready - m.sendAt)
		}
		if s.obsMsg {
			s.obsMsgs = append(s.obsMsgs, obs.MsgEvent{
				Send: m.sendAt, Ready: ready, Src: m.src, Dst: m.dst, Bytes: m.bytes, Rdv: true,
			})
		}
		s.unlink(&s.channels[m.ch], ev.Arg0)
		s.freeReq(req)
		s.freeMsg(ev.Arg0)

	default:
		panic(fmt.Sprintf("simmpi: unknown event kind %d", ev.Kind))
	}
}

func (s *Sim) execSend(r *rankState, peer, bytes int) {
	if peer == int(r.id) || peer < 0 || peer >= len(s.ranks) {
		panic(fmt.Sprintf("simmpi: rank %d sends to invalid peer %d", r.id, peer))
	}
	s.sends++
	s.bytes += uint64(bytes)
	ts := r.t
	p := &s.par
	path := s.topo.Path(int(r.id), peer)
	ci := s.chanIndex(r.id, int32(peer))
	mi := s.allocMsg()
	m := &s.msgs[mi]
	m.src, m.dst, m.bytes, m.ch = r.id, int32(peer), int32(bytes), ci
	m.sendAt = ts
	ch := &s.channels[ci]
	ch.msgs.pushBack(&s.slab, mi)
	// Match a posted receive, if one is waiting.
	if ch.recvs.n > 0 {
		m.recv = ch.recvs.popFront(s.slab)
	}

	switch {
	case path == logp.OnChip && bytes <= logp.EagerThreshold:
		// Table 1(b) eq (5): ocopy + size×Gcopy + ocopy.
		s.resumeAt(r, ts+p.Ocopy)
		ready := ts + p.Ocopy + float64(bytes)*p.Gcopy
		s.eng.AtKind(ready, evDeliver, mi, 0)

	case path == logp.OnChip:
		// Table 1(b) eq (6): o + size×Gdma + ocopy, DMA via the shared bus.
		s.eng.AtKind(ts+p.Ochip, evChipDMA, mi, 0)

	case bytes <= logp.EagerThreshold:
		// Table 1(a) eq (1): o + size×G + L + o; eager, sender buffers.
		s.resumeAt(r, ts+p.O)
		s.eng.AtKind(ts+p.O, evEagerInject, mi, 0)

	default:
		// Table 1(a) eq (2): rendezvous. The sender stays blocked until the
		// clear-to-send arrives and the data is injected.
		m.rendezvous = true
		s.eng.AtKind(ts+p.O+p.L, evRTS, mi, 0)
	}
}

// maybeHandshake fires the rendezvous clear-to-send once both the RTS has
// arrived at the receiver and a matching receive has been posted. It is
// called at the virtual time of the later of those two events.
func (s *Sim) maybeHandshake(mi int32) {
	m := &s.msgs[mi]
	if m.ctsIssued || !m.rtsArrived || m.recv == none {
		return
	}
	m.ctsIssued = true
	p := &s.par
	th := s.eng.Now() // max(recv post, RTS arrival)
	s.eng.AtKind(th+p.H+p.L, evCTS, mi, 0)
}

// deliver marks an eager or on-chip message's data available at the
// receiver and completes a matched waiting receive.
func (s *Sim) deliver(mi int32, ready float64) {
	m := &s.msgs[mi]
	m.ready = true
	m.readyAt = ready
	if m.recv != none {
		s.completeRecv(mi)
	}
}

// completeRecv finishes a matched, ready, non-rendezvous receive and
// returns the message and its request to their pools.
func (s *Sim) completeRecv(mi int32) {
	m := &s.msgs[mi]
	ri := m.recv
	req := &s.reqs[ri]
	start := m.readyAt
	if req.postAt > start {
		start = req.postAt
	}
	resume := start + s.recvOverhead(m)
	s.resumeAt(&s.ranks[req.rank], resume)
	if s.hists != nil {
		s.hists.RecvWait.Observe(resume - req.postAt)
		s.hists.MsgLatency.Observe(m.readyAt - m.sendAt)
	}
	if s.obsMsg {
		s.obsMsgs = append(s.obsMsgs, obs.MsgEvent{
			Send: m.sendAt, Ready: m.readyAt, Src: m.src, Dst: m.dst, Bytes: m.bytes,
		})
	}
	s.unlink(&s.channels[m.ch], mi)
	s.freeReq(ri)
	s.freeMsg(mi)
}

// recvOverhead returns the receiver-side trailing processing time: o for
// off-node messages (Table 1(a) eqs (3), (4b)), ocopy for on-chip messages
// (Table 1(b) eqs (7), (8b)).
func (s *Sim) recvOverhead(m *message) float64 {
	if s.topo.Path(int(m.src), int(m.dst)) == logp.OnChip {
		return s.par.Ocopy
	}
	return s.par.O
}

func (s *Sim) execRecv(r *rankState, peer int) {
	if peer == int(r.id) || peer < 0 || peer >= len(s.ranks) {
		panic(fmt.Sprintf("simmpi: rank %d receives from invalid peer %d", r.id, peer))
	}
	s.recvs++
	ci := s.chanIndex(int32(peer), r.id)
	ri := s.allocReq()
	s.reqs[ri] = recvReq{rank: r.id, postAt: r.t}
	ch := &s.channels[ci]
	// Match the first message not already claimed by an earlier receive
	// (MPI non-overtaking ordering between a pair of ranks).
	mi := none
	for k := int32(0); k < ch.msgs.n; k++ {
		if idx := ch.msgs.at(s.slab, k); s.msgs[idx].recv == none {
			mi = idx
			break
		}
	}
	if mi == none {
		ch.recvs.pushBack(&s.slab, ri)
		return
	}
	m := &s.msgs[mi]
	m.recv = ri
	switch {
	case m.rendezvous:
		s.maybeHandshake(mi)
	case m.ready:
		s.completeRecv(mi)
	}
	// Otherwise the message is still in flight; deliver() completes it.
}
