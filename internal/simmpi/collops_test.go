package simmpi_test

// Structural tests of the collective expansions: for every algorithm and
// rank count, the per-rank op lists must form a consistent message-passing
// schedule — each Send has exactly one matching Recv on its peer — and the
// expansion must reject non-collectives and foreign algorithms.

import (
	"testing"

	"repro/internal/logp"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

// expandAll returns every rank's expansion of op.
func expandAll(op simmpi.Op, ranks int) [][]simmpi.Op {
	out := make([][]simmpi.Op, ranks)
	for r := 0; r < ranks; r++ {
		out[r] = simmpi.AppendCollective(nil, op, r, ranks)
	}
	return out
}

// TestExpansionSendRecvMatching checks pairwise message conservation: for
// every ordered rank pair, the number of sends a→b equals the number of
// receives b posts from a, and every op addresses a valid foreign peer.
func TestExpansionSendRecvMatching(t *testing.T) {
	ops := []simmpi.Op{
		simmpi.Bcast(0, 1000),
		simmpi.Bcast(3, 2000),
		simmpi.AllReduceAlg(8, simmpi.AlgRing),
		simmpi.AllReduceAlg(100000, simmpi.AlgRing),
		simmpi.AllReduceAlg(8, simmpi.AlgRecDouble),
		simmpi.AllReduceAlg(100000, simmpi.AlgRecDouble),
		simmpi.Barrier(),
	}
	for _, op := range ops {
		for _, ranks := range []int{1, 2, 3, 4, 5, 8, 13, 16, 33} {
			if op.Kind == simmpi.OpBcast && int(op.Peer) >= ranks {
				continue
			}
			progs := expandAll(op, ranks)
			sends := map[[2]int]int{}
			recvs := map[[2]int]int{}
			for r, prog := range progs {
				for _, o := range prog {
					peer := int(o.Peer)
					if peer == r || peer < 0 || peer >= ranks {
						t.Fatalf("op %+v at P=%d: rank %d addresses invalid peer %d", op, ranks, r, peer)
					}
					switch o.Kind {
					case simmpi.OpSend:
						if o.Bytes <= 0 {
							t.Fatalf("op %+v at P=%d: rank %d sends %d bytes", op, ranks, r, o.Bytes)
						}
						sends[[2]int{r, peer}]++
					case simmpi.OpRecv:
						recvs[[2]int{peer, r}]++
					default:
						t.Fatalf("op %+v at P=%d: expansion yields non-p2p kind %d", op, ranks, o.Kind)
					}
				}
			}
			if len(sends) != len(recvs) {
				t.Fatalf("op %+v at P=%d: %d send channels vs %d recv channels", op, ranks, len(sends), len(recvs))
			}
			for ch, n := range sends {
				if recvs[ch] != n {
					t.Fatalf("op %+v at P=%d: channel %v has %d sends but %d recvs", op, ranks, ch, n, recvs[ch])
				}
			}
			if ranks == 1 {
				for r, prog := range progs {
					if len(prog) != 0 {
						t.Fatalf("op %+v: single-rank expansion of rank %d is non-empty", op, r)
					}
				}
			}
		}
	}
}

// TestExpansionPanics locks the misuse contract.
func TestExpansionPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("non-collective", func() {
		simmpi.AppendCollective(nil, simmpi.Compute(1), 0, 4)
	})
	mustPanic("send op", func() {
		simmpi.AppendCollective(nil, simmpi.Send(1, 8), 0, 4)
	})
	mustPanic("auto all-reduce", func() {
		simmpi.AppendCollective(nil, simmpi.AllReduce(8), 0, 4)
	})
	mustPanic("all-reduce with binomial", func() {
		simmpi.AppendCollective(nil, simmpi.AllReduceAlg(8, simmpi.AlgBinomial), 0, 4)
	})
	mustPanic("all-reduce with dissemination", func() {
		simmpi.AppendCollective(nil, simmpi.AllReduceAlg(8, simmpi.AlgDissemination), 0, 4)
	})
	mustPanic("bcast root out of range", func() {
		simmpi.AppendCollective(nil, simmpi.Bcast(4, 8), 0, 4)
	})
}

// TestCollectiveMidProgram runs collectives interleaved with point-to-point
// traffic on the same channels: the non-overtaking FIFO matching must pair
// application messages with application receives and constituent messages
// with constituent receives, in program order.
func TestCollectiveMidProgram(t *testing.T) {
	const ranks = 4
	topo := simnet.NewTopology(logp.XT4(), ranks, simnet.SpreadPlacement())
	progs := make([]simmpi.Program, ranks)
	for r := range progs {
		next := (r + 1) % ranks
		prev := (r + ranks - 1) % ranks
		progs[r] = simmpi.Ops(
			simmpi.Send(next, 512),                    // application eager traffic on ring channels
			simmpi.AllReduceAlg(4096, simmpi.AlgRing), // collective reusing those channels
			simmpi.Recv(prev),                         // application receive posted after the collective
			simmpi.Barrier(),
		)
	}
	res, err := new(simmpi.Sim).Simulate(topo, progs, simmpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 app messages + ring 2·P·(P−1) + barrier P·ceil(log2 P).
	want := uint64(4 + 2*ranks*(ranks-1) + ranks*2)
	if res.Sends != want {
		t.Errorf("total sends %d, want %d", res.Sends, want)
	}
}
