package simmpi

import (
	"math"
	"strings"
	"testing"

	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/simnet"
)

func offNodePair() *simnet.Topology {
	return simnet.NewTopology(logp.XT4(), 2, simnet.SpreadPlacement())
}

func onChipPair() *simnet.Topology {
	return simnet.NewTopology(logp.XT4(), 2, simnet.LinearPlacement(machine.XT4()))
}

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// simulate runs progs (rank r gets progs[r]) on a fresh Sim over topo.
func simulate(topo *simnet.Topology, progs ...Program) (Result, error) {
	return new(Sim).Simulate(topo, progs, Options{})
}

// allReduces returns n programs that each perform one all-reduce of the
// given size.
func allReduces(n, bytes int) []Program {
	progs := make([]Program, n)
	for r := range progs {
		progs[r] = Ops(AllReduce(bytes))
	}
	return progs
}

// runPair runs a single send on rank 0 and a single receive on rank 1 with
// the receive pre-posted, returning rank finish times.
func runPair(t *testing.T, topo *simnet.Topology, bytes int) Result {
	t.Helper()
	res, err := simulate(topo, Ops(Send(1, bytes)), Ops(Recv(0)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEagerOffNodeMatchesEquation1(t *testing.T) {
	p := logp.XT4()
	for _, bytes := range []int{1, 64, 1024} {
		res := runPair(t, offNodePair(), bytes)
		// Receiver finishes at TotalComm = o + size×G + L + o (eq 1).
		if want := p.TotalCommOffNode(bytes); !almostEq(res.RankFinish[1], want) {
			t.Errorf("bytes=%d: recv finish = %v, want %v", bytes, res.RankFinish[1], want)
		}
		// Eager sender unblocks after o.
		if !almostEq(res.RankFinish[0], p.O) {
			t.Errorf("bytes=%d: send finish = %v, want o = %v", bytes, res.RankFinish[0], p.O)
		}
	}
}

func TestRendezvousOffNodeMatchesEquation2(t *testing.T) {
	p := logp.XT4()
	for _, bytes := range []int{1025, 4096, 12288} {
		res := runPair(t, offNodePair(), bytes)
		// Pre-posted receive: TotalComm = o + h + o + size×G + L + o (eq 2).
		if want := p.TotalCommOffNode(bytes); !almostEq(res.RankFinish[1], want) {
			t.Errorf("bytes=%d: recv finish = %v, want %v", bytes, res.RankFinish[1], want)
		}
		// Sender blocks for ≈ o + h + o (handshake + injection).
		if want := p.O + p.Handshake() + p.O; !almostEq(res.RankFinish[0], want) {
			t.Errorf("bytes=%d: send finish = %v, want %v", bytes, res.RankFinish[0], want)
		}
	}
}

func TestEagerOnChipMatchesEquation5(t *testing.T) {
	p := logp.XT4()
	for _, bytes := range []int{16, 1000} {
		res := runPair(t, onChipPair(), bytes)
		if want := p.TotalCommOnChip(bytes); !almostEq(res.RankFinish[1], want) {
			t.Errorf("bytes=%d: recv finish = %v, want eq(5) %v", bytes, res.RankFinish[1], want)
		}
		if !almostEq(res.RankFinish[0], p.Ocopy) {
			t.Errorf("bytes=%d: send finish = %v, want ocopy", bytes, res.RankFinish[0])
		}
	}
}

func TestLargeOnChipMatchesEquation6(t *testing.T) {
	p := logp.XT4()
	for _, bytes := range []int{2048, 8192} {
		res := runPair(t, onChipPair(), bytes)
		if want := p.TotalCommOnChip(bytes); !almostEq(res.RankFinish[1], want) {
			t.Errorf("bytes=%d: recv finish = %v, want eq(6) %v", bytes, res.RankFinish[1], want)
		}
		if !almostEq(res.RankFinish[0], p.Ochip) {
			t.Errorf("bytes=%d: send finish = %v, want o = ocopy+odma", bytes, res.RankFinish[0])
		}
	}
}

func TestLateRecvDelaysCompletion(t *testing.T) {
	p := logp.XT4()
	const busy = 1000.0
	res, err := simulate(offNodePair(), Ops(Send(1, 512)), Ops(Compute(busy), Recv(0)))
	if err != nil {
		t.Fatal(err)
	}
	// Message arrived long before the receive was posted: completion is
	// post time + o.
	if want := busy + p.O; !almostEq(res.RankFinish[1], want) {
		t.Errorf("late recv finish = %v, want %v", res.RankFinish[1], want)
	}
}

func TestLateRecvRendezvousHoldsSender(t *testing.T) {
	p := logp.XT4()
	const busy = 1000.0
	res, err := simulate(offNodePair(), Ops(Send(1, 4096)), Ops(Compute(busy), Recv(0)))
	if err != nil {
		t.Fatal(err)
	}
	// The rendezvous sender cannot inject until the receive is posted.
	if res.RankFinish[0] < busy {
		t.Errorf("rendezvous sender finished at %v before recv posted at %v", res.RankFinish[0], busy)
	}
	// Receiver: CTS at busy, then L + o + size×G + L + o (eq 4b).
	want := busy + p.L + p.O + 4096*p.G + p.L + p.O
	if !almostEq(res.RankFinish[1], want) {
		t.Errorf("recv finish = %v, want %v", res.RankFinish[1], want)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	// Two sends with different sizes must match receives in order.
	res, err := simulate(offNodePair(), Ops(Send(1, 100), Send(1, 200)), Ops(Recv(0), Recv(0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sends != 2 || res.Recvs != 2 || res.BytesSent != 300 {
		t.Errorf("traffic counters = %+v", res)
	}
}

func TestManyRoundTripsAccumulate(t *testing.T) {
	p := logp.XT4()
	const rounds = 10
	var o0, o1 []Op
	for i := 0; i < rounds; i++ {
		o0 = append(o0, Send(1, 512), Recv(1))
		o1 = append(o1, Recv(0), Send(0, 512))
	}
	res, err := simulate(offNodePair(), Ops(o0...), Ops(o1...))
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * rounds * p.TotalCommOffNode(512)
	if !almostEq(res.Time, want) {
		t.Errorf("round trips = %v, want %v", res.Time, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, err := simulate(offNodePair(), Ops(Recv(1)), Ops(Recv(0)))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "[0 1]") {
		t.Errorf("blocked ranks not named: %v", err)
	}
}

func TestRendezvousMutualSendDeadlocks(t *testing.T) {
	// The classic MPI head-to-head bug: two blocking rendezvous sends, each
	// waiting for the peer to post a receive that is queued behind the
	// send. Eager messages slip through (see the next test); above the
	// threshold this deadlocks, and the simulator must report it.
	_, err := simulate(offNodePair(), Ops(Send(1, 4096), Recv(1)), Ops(Send(0, 4096), Recv(0)))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected rendezvous deadlock, got %v", err)
	}
}

func TestEagerSendsDoNotDeadlock(t *testing.T) {
	if _, err := simulate(offNodePair(), Ops(Send(1, 64), Recv(1)), Ops(Send(0, 64), Recv(0))); err != nil {
		t.Fatal(err)
	}
}

func TestComputeAccounting(t *testing.T) {
	res, err := simulate(offNodePair(), Ops(Compute(5), Compute(7)), Ops(Compute(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputeTime[0] != 12 || res.ComputeTime[1] != 1 {
		t.Errorf("compute = %v", res.ComputeTime)
	}
	if res.MaxComputeTime() != 12 {
		t.Errorf("MaxComputeTime = %v", res.MaxComputeTime())
	}
	if res.Time != 12 {
		t.Errorf("Time = %v", res.Time)
	}
}

func TestEmptyProgramsFinishAtZero(t *testing.T) {
	res, err := simulate(offNodePair())
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 0 {
		t.Errorf("Time = %v", res.Time)
	}
}

func TestAllReduceSingleCorePerNodeMatchesEquation9(t *testing.T) {
	// With one core per node and a power-of-two rank count, recursive
	// doubling costs exactly log2(P) × TotalComm, which is equation (9)
	// with C = 1.
	p := logp.XT4()
	for _, P := range []int{2, 4, 8, 16, 64} {
		topo := simnet.NewTopology(p, P, simnet.SpreadPlacement())
		res, err := simulate(topo, allReduces(P, 8)...)
		if err != nil {
			t.Fatal(err)
		}
		want := p.AllReduce(P, 1, 8)
		if !almostEq(res.Time, want) {
			t.Errorf("P=%d: allreduce = %v, want %v", P, res.Time, want)
		}
	}
}

func TestAllReduceNonPowerOfTwo(t *testing.T) {
	p := logp.XT4()
	topo := simnet.NewTopology(p, 6, simnet.SpreadPlacement())
	res, err := simulate(topo, allReduces(6, 8)...)
	if err != nil {
		t.Fatal(err)
	}
	// Fold + 2 rounds + unfold: between 3 and 4 exchanges on the critical path.
	lo := 3 * p.TotalCommOffNode(8)
	hi := 4.5 * p.TotalCommOffNode(8)
	if res.Time < lo || res.Time > hi {
		t.Errorf("allreduce(6) = %v, want in [%v, %v]", res.Time, lo, hi)
	}
}

func TestAllReduceMismatchedSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched all-reduce sizes")
		}
	}()
	_, _ = simulate(offNodePair(), Ops(AllReduce(8)), Ops(AllReduce(16)))
}

func TestSendToSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	_, _ = simulate(offNodePair(), Ops(Send(0, 8)))
}

func TestBusContentionEmergesOffNode(t *testing.T) {
	// Two cores of one node send large messages off-node simultaneously:
	// the second DMA queues behind the first on the shared bus, so the
	// later receiver finishes strictly later than the Table 1 time.
	p := logp.XT4()
	mach := machine.XT4()
	topo := simnet.NewTopology(p, 4, simnet.LinearPlacement(mach)) // (0,1) node A, (2,3) node B
	res, err := simulate(topo, Ops(Send(2, 8192)), Ops(Send(3, 8192)), Ops(Recv(0)), Ops(Recv(1)))
	if err != nil {
		t.Fatal(err)
	}
	nominal := p.TotalCommOffNode(8192)
	slower := math.Max(res.RankFinish[2], res.RankFinish[3])
	if slower <= nominal {
		t.Errorf("no contention visible: %v <= %v", slower, nominal)
	}
	if res.BusQueued == 0 || res.BusWait <= 0 {
		t.Errorf("bus stats show no queueing: %+v", res)
	}
	// The paper's interference bound: at most I extra per DMA.
	maxExtra := 2 * topo.BusOccupancy(8192)
	if slower > nominal+maxExtra+1e-9 {
		t.Errorf("contention %v exceeds bound %v", slower-nominal, nominal+maxExtra)
	}
}

func TestFuncProgram(t *testing.T) {
	n := 0
	res, err := simulate(offNodePair(), FuncProgram(func() (Op, bool) {
		if n >= 3 {
			return Op{}, false
		}
		n++
		return Compute(2), true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.RankFinish[0] != 6 {
		t.Errorf("finish = %v", res.RankFinish[0])
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Result, error) {
		topo := simnet.NewTopology(logp.XT4(), 4, simnet.LinearPlacement(machine.XT4()))
		return simulate(topo,
			Ops(Send(2, 4096), Recv(3), AllReduce(8)),
			Ops(Send(3, 100), Recv(2), AllReduce(8)),
			Ops(Recv(0), Send(1, 2000), AllReduce(8)),
			Ops(Recv(1), Send(0, 50), AllReduce(8)))
	}
	r1, err := run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r1.Events != r2.Events {
		t.Errorf("non-deterministic: %v/%d vs %v/%d", r1.Time, r1.Events, r2.Time, r2.Events)
	}
}

// TestSimulateRejectsExtraPrograms: more programs than ranks is an error,
// not an index panic, and leaves the Sim usable for a valid run.
func TestSimulateRejectsExtraPrograms(t *testing.T) {
	s := new(Sim)
	_, err := s.Simulate(offNodePair(), []Program{Ops(), Ops(), Ops(Compute(1))}, Options{})
	if err == nil || !strings.Contains(err.Error(), "3 programs for 2 ranks") {
		t.Fatalf("err = %v, want a program-count error", err)
	}
	res, err := s.Simulate(offNodePair(), []Program{Ops(Compute(2))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 2 {
		t.Errorf("Time = %v after the rejected run, want 2", res.Time)
	}
}
