// Package simmpi is a deterministic discrete-event simulator of an
// MPI-style message-passing runtime on a multi-core parallel machine.
//
// Each rank executes a program of operations (Compute, Send, Recv,
// AllReduce) with blocking MPI semantics. Message timing follows the LogGP
// sub-models of paper Table 1: the eager protocol for messages of at most
// 1024 bytes and the rendezvous (handshake) protocol above that threshold
// (Section 3.1), with the on-chip copy/DMA paths of Section 3.2 when sender
// and receiver share a node. Every off-node or on-chip DMA passes through
// the owning node's shared bus (a FCFS resource, paper Section 4.3), so
// multi-core message contention emerges from queueing rather than being a
// closed-form term. When the topology carries an inter-node interconnect
// (internal/topo), off-node data segments additionally route across
// contended torus or fat-tree links; small rendezvous control messages
// (RTS/CTS) and the closed-form all-reduce stay on the latency-dominated
// flat-wire model.
//
// The hot path is allocation-free: message lifetimes are an explicit
// state machine of typed des events (events.go), message and receive
// records live in index-addressed pools, and channels are flat per-rank
// neighbour tables with ring-buffer queues (pool.go). Event ordering is
// bit-identical to the original closure-based implementation
// (golden_test.go).
//
// One Sim runs one des engine in the engine's (time, seq) event order:
// same-time events fire in the order they were scheduled.
//
// The simulator serves as the reproduction's "measured" substrate: the
// plug-and-play analytic model of internal/core is validated against it the
// way the paper validates against the Cray XT4.
package simmpi

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/logp"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// OpKind identifies a program operation.
type OpKind uint8

// Program operations.
const (
	OpCompute   OpKind = iota // local computation for Dur microseconds
	OpSend                    // blocking MPI send of Bytes to Peer
	OpRecv                    // blocking MPI receive from Peer
	OpAllReduce               // MPI all-reduce of Bytes over all ranks
	OpBcast                   // MPI broadcast of Bytes from root Peer
	OpBarrier                 // MPI barrier over all ranks
)

// Op is a single program operation. The zero Op is a zero-length compute.
//
// The struct deliberately stays at four fields: the compiler only
// SSA-decomposes small structs, and a fifth field pushes every Op copy in
// the simulator's hot loop through memory (measured ≈8% event-rate loss).
// Collective algorithm selection therefore rides in Peer, which all-reduce
// ops do not otherwise use (see CollAlgOf in collops.go).
type Op struct {
	Kind  OpKind
	Peer  int32   // send/recv peer rank; broadcast root; all-reduce CollAlg
	Bytes int32   // message size in bytes
	Dur   float64 // compute duration in microseconds
}

// Compute returns a computation op of the given duration in microseconds.
func Compute(dur float64) Op { return Op{Kind: OpCompute, Dur: dur} }

// Send returns a blocking send op.
func Send(peer, bytes int) Op {
	return Op{Kind: OpSend, Peer: int32(peer), Bytes: int32(bytes)}
}

// Recv returns a blocking receive op.
func Recv(peer int) Op { return Op{Kind: OpRecv, Peer: int32(peer)} }

// AllReduce returns an all-reduce op over all ranks.
func AllReduce(bytes int) Op { return Op{Kind: OpAllReduce, Bytes: int32(bytes)} }

// Program supplies a rank's operations one at a time, which lets wavefront
// programs with millions of operations be generated lazily.
type Program interface {
	// Next returns the next operation, or ok == false at program end.
	Next() (op Op, ok bool)
}

// SliceProgram is a Program backed by a slice of operations.
type SliceProgram struct {
	ops []Op
	pos int
}

// Ops builds a SliceProgram from a fixed operation list.
func Ops(ops ...Op) *SliceProgram { return &SliceProgram{ops: ops} }

// Next implements Program.
func (p *SliceProgram) Next() (Op, bool) {
	if p.pos >= len(p.ops) {
		return Op{}, false
	}
	op := p.ops[p.pos]
	p.pos++
	return op, true
}

// Rewind returns the program to its first operation so it can be replayed
// by a reused simulator (see Sim.Simulate).
func (p *SliceProgram) Rewind() { p.pos = 0 }

// FuncProgram adapts a generator function to the Program interface.
type FuncProgram func() (Op, bool)

// Next implements Program.
func (f FuncProgram) Next() (Op, bool) { return f() }

// Result summarises a completed simulation.
type Result struct {
	// Time is the virtual time at which the last rank finished, in µs.
	Time float64
	// RankFinish holds each rank's finish time in µs.
	RankFinish []float64
	// ComputeTime holds each rank's total Compute-op time in µs; the
	// difference between finish and compute time is time spent in
	// communication and pipeline waiting (paper Figure 11's breakdown).
	ComputeTime []float64
	// Sends, Recvs and BytesSent count message traffic.
	Sends, Recvs uint64
	BytesSent    uint64
	// Events is the number of discrete events executed.
	Events uint64
	// BusRequests/BusQueued/BusBusy/BusWait aggregate shared-bus contention.
	BusRequests, BusQueued uint64
	BusBusy, BusWait       float64
	// LinkRequests/LinkQueued/LinkBusy/LinkWait aggregate interconnect link
	// contention (internal/topo); all zero on the flat-wire network.
	LinkRequests, LinkQueued uint64
	LinkBusy, LinkWait       float64
	// Hists carries the run's duration histograms when a flight recorder
	// with Hist enabled was attached (Options.Obs); nil otherwise. The
	// pointer aliases the recorder's accumulator, which keeps accumulating
	// if the recorder is reused without a Reset.
	Hists *obs.SimHists
}

// MaxComputeTime returns the largest per-rank compute time.
func (r Result) MaxComputeTime() float64 {
	var m float64
	for _, c := range r.ComputeTime {
		if c > m {
			m = c
		}
	}
	return m
}

// Sim is a reusable simulation instance. The zero Sim is ready to use:
// Simulate binds it to a topology, installs the rank programs and runs
// them, and every later Simulate reuses the event queue, message pools and
// channel tables of the previous run. Simulate is ResetWithOptions,
// SetProgram for each rank and Run in one call; a fresh and a reused Sim
// execute the same code.
//
// The engine's handler points back at the Sim, so a Sim must not be
// copied after its first run: hold it by pointer.
type Sim struct {
	topo   *simnet.Topology
	par    logp.Params // snapshot of topo.Params (frozen per Topology contract); hot handlers avoid re-copying the struct
	ranks  []rankState
	arGens []arGen
	eng    des.Engine

	// Flight-recorder snapshot (Options.Obs): the recorder plus cached
	// feature booleans so hot-path guards are single loads, and the run's
	// histogram scratch and message log, merged into the recorder at
	// assemble.
	obs         *obs.Recorder
	obsSpans    bool
	obsMsg      bool
	obsOps      bool
	hists       *obs.SimHists // points at histScratch when enabled, else nil
	histScratch obs.SimHists
	obsMsgs     []obs.MsgEvent

	// Pooled hot-path state (pool.go). slab holds the elements of every
	// channel ring.
	channels []channel
	slab     []int32
	msgs     []message
	msgFree  []int32
	reqs     []recvReq
	reqFree  []int32

	sends uint64
	recvs uint64
	bytes uint64
}

type rankState struct {
	id      int32
	prog    Program
	t       float64 // local time of last completed operation
	compute float64
	arGen   int
	done    bool

	pending Op // comm op waiting for its evComm event

	out []port // flat channel table: peers this rank sends to

	// Collective sub-schedule in progress: the point-to-point constituent
	// ops of an expanded collective (collops.go) and the next one to run.
	// The buffer is pooled — expansion reuses it across collectives and
	// across Reset, so steady-state collective execution is allocation-free.
	coll   []Op
	collIx int32

	// Span state: the communication op in progress and its start time.
	inComm  bool
	curOp   Op
	opStart float64
}

type arGen struct {
	bytes   int
	entered int
	times   []float64
}

// reset prepares the Sim for another run over the given topology,
// retaining the capacity of every internal pool — the event queue, the
// message and receive-request free lists, the channel rings and the
// per-rank tables — so that back-to-back simulations of similar size
// perform near-zero heap allocations after the first. All programs are
// cleared. ResetWithOptions is its only caller: it applies the next run's
// options right after.
func (s *Sim) reset(topo *simnet.Topology) {
	if s.topo == nil {
		s.eng.SetHandler(s.handle) // first bind of a zero Sim
	}
	s.topo = topo
	s.par = topo.Params
	n := topo.Ranks()
	used := n // entries that may hold an earlier run's state
	if n <= cap(s.ranks) {
		s.ranks = s.ranks[:n]
	} else {
		old := s.ranks
		s.ranks = make([]rankState, n)
		used = copy(s.ranks, old) // carry over the allocated out tables
	}
	for i := range s.ranks[:used] {
		r := &s.ranks[i]
		*r = rankState{out: r.out[:0], coll: r.coll[:0]}
	}
	for i := range s.ranks {
		s.ranks[i].id = int32(i)
	}
	// Truncating (not clearing) keeps backing arrays; chanIndex re-claims
	// channel slots and ring regions, and AllocSlot repopulates the pools
	// in the same order a fresh Sim would.
	s.arGens = s.arGens[:0]
	s.eng.Reset()
	s.channels, s.slab = s.channels[:0], s.slab[:0]
	s.msgs, s.msgFree = s.msgs[:0], s.msgFree[:0]
	s.reqs, s.reqFree = s.reqs[:0], s.reqFree[:0]
	s.sends, s.recvs, s.bytes = 0, 0, 0
	s.obsMsgs = s.obsMsgs[:0]
}

// Simulate runs one simulation: it rebinds the Sim to topo with options o
// (ResetWithOptions), installs progs[r] as rank r's program and runs to
// completion. Ranks beyond len(progs) run no program and terminate
// immediately. More programs than ranks is an error, reported before the
// Sim is touched.
func (s *Sim) Simulate(topo *simnet.Topology, progs []Program, o Options) (Result, error) {
	if len(progs) > topo.Ranks() {
		return Result{}, fmt.Errorf("simmpi: %d programs for %d ranks", len(progs), topo.Ranks())
	}
	if err := s.ResetWithOptions(topo, o); err != nil {
		return Result{}, err
	}
	for r, p := range progs {
		s.SetProgram(r, p)
	}
	return s.Run()
}

// Topology returns the topology the Sim was last bound to, so callers can
// read its interconnect statistics after a run.
func (s *Sim) Topology() *simnet.Topology { return s.topo }

// SetProgram assigns rank r's program.
func (s *Sim) SetProgram(r int, p Program) { s.ranks[r].prog = p }

// Run executes the simulation to completion. It returns an error if any
// rank blocks forever (deadlock) — e.g. a receive with no matching send.
func (s *Sim) Run() (Result, error) {
	o := s.obs
	s.obsSpans = o != nil && o.Spans
	s.obsMsg = o != nil && o.Messages
	s.obsOps = o != nil && o.Ops
	s.hists = nil
	if o != nil {
		o.PrepareRanks(len(s.ranks))
		if o.Links || o.Hist {
			s.topo.SetLinkTracer(o.Link)
			defer s.topo.SetLinkTracer(nil)
		}
		if o.Hist {
			s.histScratch.Reset()
			s.hists = &s.histScratch
		}
	}
	for i := range s.ranks {
		s.advance(&s.ranks[i])
	}
	return s.assemble(s.eng.Run())
}

// assemble folds the final engine clock and the run's counters into a
// Result and performs the deadlock check.
func (s *Sim) assemble(end float64) (Result, error) {
	// Pure-compute programs advance rank-local clocks without scheduling
	// events, so the finish time is the later of the engine clock and the
	// last rank-local completion.
	for i := range s.ranks {
		if s.ranks[i].done && s.ranks[i].t > end {
			end = s.ranks[i].t
		}
	}

	res := Result{
		Time:        end,
		RankFinish:  make([]float64, len(s.ranks)),
		ComputeTime: make([]float64, len(s.ranks)),
		Sends:       s.sends,
		Recvs:       s.recvs,
		BytesSent:   s.bytes,
		Events:      s.eng.EventsRun(),
	}
	res.BusRequests, res.BusQueued, res.BusBusy, res.BusWait = s.topo.BusStats()
	res.LinkRequests, res.LinkQueued, res.LinkBusy, res.LinkWait = s.topo.LinkStats()

	if o := s.obs; o != nil {
		if len(s.obsMsgs) > 0 {
			o.AddMessages(s.obsMsgs)
		}
		if s.hists != nil {
			o.MergeHists(s.hists)
		}
		if o.Hist {
			res.Hists = o.Hists()
		}
	}

	var blocked []int
	for i := range s.ranks {
		r := &s.ranks[i]
		if !r.done {
			blocked = append(blocked, int(r.id))
			continue
		}
		res.RankFinish[r.id] = r.t
		res.ComputeTime[r.id] = r.compute
	}
	if len(blocked) > 0 {
		sort.Ints(blocked)
		if len(blocked) > 8 {
			return res, fmt.Errorf("simmpi: deadlock, %d ranks blocked (first: %v)", len(blocked), blocked[:8])
		}
		return res, fmt.Errorf("simmpi: deadlock, ranks blocked: %v", blocked)
	}
	return res, nil
}

// advance executes r's program from the current virtual time until the rank
// blocks on a communication operation or finishes. Precondition: the
// engine's clock does not exceed r.t.
func (s *Sim) advance(r *rankState) {
	if r.inComm {
		r.inComm = false
		if s.obsSpans {
			peer := r.curOp.Peer
			if r.curOp.Kind == OpAllReduce {
				peer = -1
			}
			s.obs.RankSpan(r.id, uint8(r.curOp.Kind), peer, r.curOp.Bytes, r.opStart, r.t)
		}
	}
	for {
		var op Op
		if r.collIx < int32(len(r.coll)) {
			// Drain the constituent ops of the collective in progress.
			op = r.coll[r.collIx]
			r.collIx++
		} else {
			if r.prog == nil {
				r.done = true
				return
			}
			var ok bool
			op, ok = r.prog.Next()
			if !ok {
				r.done = true
				return
			}
			// Record the op pre-expansion: collective constituents are
			// re-derived deterministically on replay, so the trace stays
			// proportional to the program, not to P × collective size.
			if s.obsOps {
				s.obs.RankOp(r.id, uint8(op.Kind), op.Peer, op.Bytes, op.Dur)
			}
			if expandsToP2P(op) {
				r.coll = AppendCollective(r.coll[:0], op, int(r.id), len(s.ranks))
				r.collIx = 0
				continue
			}
		}
		switch op.Kind {
		case OpCompute:
			if s.obsSpans && op.Dur > 0 {
				s.obs.RankSpan(r.id, uint8(OpCompute), -1, 0, r.t, r.t+op.Dur)
			}
			r.compute += op.Dur
			r.t += op.Dur
		case OpSend, OpRecv, OpAllReduce:
			if r.t > s.eng.Now() {
				r.pending = op
				s.eng.AtKind(r.t, evComm, r.id, 0)
			} else {
				s.execComm(r, op)
			}
			return
		default:
			panic(fmt.Sprintf("simmpi: unknown op kind %d", op.Kind))
		}
	}
}

// resumeAt unblocks r at virtual time t ≥ now.
func (s *Sim) resumeAt(r *rankState, t float64) {
	r.t = t
	s.eng.AtKind(t, evResume, r.id, 0)
}

// execComm performs a communication op at engine time == r.t.
func (s *Sim) execComm(r *rankState, op Op) {
	r.inComm = true
	r.curOp = op
	r.opStart = r.t
	switch op.Kind {
	case OpSend:
		s.execSend(r, int(op.Peer), int(op.Bytes))
	case OpRecv:
		s.execRecv(r, int(op.Peer))
	case OpAllReduce:
		s.execAllReduce(r, int(op.Bytes))
	}
}

func (s *Sim) execAllReduce(r *rankState, bytes int) {
	key := r.arGen
	for len(s.arGens) <= key {
		s.arGens = append(s.arGens, arGen{})
	}
	gen := &s.arGens[key]
	if gen.times == nil {
		gen.bytes = bytes
		gen.times = make([]float64, len(s.ranks))
	}
	if gen.bytes != bytes {
		panic(fmt.Sprintf("simmpi: mismatched all-reduce sizes %d vs %d", gen.bytes, bytes))
	}
	gen.times[r.id] = r.t
	gen.entered++
	r.arGen++
	if gen.entered < len(s.ranks) {
		return
	}
	times := gen.times
	gen.times = nil // release; the generation is complete
	done := s.allReduceTimes(times, bytes)
	for i := range s.ranks {
		s.resumeAt(&s.ranks[i], done[i])
	}
}

// allReduceTimes computes per-rank completion times of a recursive-doubling
// all-reduce with a pre/post fold for non-power-of-two rank counts, charging
// each exchange the LogGP TotalComm of its path. Within each round, the
// off-node exchanges of cores sharing a node serialise through the node's
// single NIC — the behaviour the paper's closed form (equation (9)) models
// with its ×C factor. The emergent time is compared against equation (9)
// in the experiments. It reads only immutable topology state.
func (s *Sim) allReduceTimes(entry []float64, bytes int) []float64 {
	p := s.topo.Params
	n := len(entry)
	t := make([]float64, n)
	copy(t, entry)
	cost := func(a, b int) float64 { return p.TotalComm(s.topo.Path(a, b), bytes) }
	// serial returns the per-node NIC serialisation factor applied to an
	// off-node exchange in a round where every core participates: the k-th
	// core of a node starts its exchange after its node-mates finish.
	nicDelay := func(r, peer int) float64 {
		if s.topo.SameNode(r, peer) {
			return 0
		}
		// Count lower-indexed ranks on the same node exchanging off-node
		// this round; they occupy the NIC first.
		var before float64
		for q := r - 1; q >= 0; q-- {
			if !s.topo.SameNode(q, r) {
				break
			}
			before++
		}
		return before * cost(r, peer)
	}

	p2 := FloorPow2(n)
	// Fold extra ranks into the power-of-two core.
	for r := p2; r < n; r++ {
		peer := r - p2
		c := max(t[r], t[peer]) + cost(r, peer)
		t[peer] = c
	}
	// Recursive doubling among the core.
	next := make([]float64, n)
	for d := 1; d < p2; d <<= 1 {
		copy(next, t)
		for r := 0; r < p2; r++ {
			peer := r ^ d
			next[r] = max(t[r], t[peer]) + cost(r, peer) + nicDelay(r, peer)
		}
		t, next = next, t
	}
	// Broadcast the result back to the folded ranks.
	for r := p2; r < n; r++ {
		peer := r - p2
		t[r] = t[peer] + cost(peer, r)
	}
	return t
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
