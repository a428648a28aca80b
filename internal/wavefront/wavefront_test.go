package wavefront

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

func TestClassifyMatchesTable3(t *testing.T) {
	// The headline property: the sweep-structure parameters derived from
	// the Figure 2 corner sequences equal the paper's Table 3 values.
	for _, tc := range []struct {
		name       string
		corners    []grid.Corner
		ns, nf, nd int
	}{
		{"LU", LUCorners(), 2, 2, 0},
		{"Sweep3D", Sweep3DCorners(), 8, 2, 2},
		{"Chimaera", ChimaeraCorners(), 8, 4, 2},
	} {
		ns, nf, nd := Classify(tc.corners)
		if ns != tc.ns || nf != tc.nf || nd != tc.nd {
			t.Errorf("%s: Classify = (%d,%d,%d), want (%d,%d,%d)",
				tc.name, ns, nf, nd, tc.ns, tc.nf, tc.nd)
		}
	}
}

func TestClassifyTransitionKinds(t *testing.T) {
	if got := ClassifyTransition(grid.NW, grid.NW); got != Pipelined {
		t.Errorf("same corner = %v", got)
	}
	if got := ClassifyTransition(grid.NW, grid.SE); got != Full {
		t.Errorf("opposite corner = %v", got)
	}
	if got := ClassifyTransition(grid.NW, grid.SW); got != Diagonal {
		t.Errorf("adjacent corner = %v", got)
	}
	if got := ClassifyTransition(grid.NW, grid.NE); got != Diagonal {
		t.Errorf("other adjacent corner = %v", got)
	}
	for _, tr := range []Transition{Pipelined, Diagonal, Full} {
		if tr.String() == "" {
			t.Error("empty transition name")
		}
	}
}

func TestClassifyEmptyAndCounts(t *testing.T) {
	ns, nf, nd := Classify(nil)
	if ns != 0 || nf != 0 || nd != 0 {
		t.Errorf("empty = %d %d %d", ns, nf, nd)
	}
	// Property: nfull ≥ 1 (final sweep), nfull + ndiag ≤ nsweeps.
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(12) + 1
			cs := make([]grid.Corner, n)
			for i := range cs {
				cs[i] = grid.Corner(r.Intn(4))
			}
			vals[0] = reflect.ValueOf(cs)
		},
	}
	prop := func(cs []grid.Corner) bool {
		ns, nf, nd := Classify(cs)
		return ns == len(cs) && nf >= 1 && nf+nd <= ns
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func testSchedule(dec grid.Decomposition, corners []grid.Corner, iters int) *Schedule {
	return &Schedule{
		Dec:        dec,
		Corners:    corners,
		Htile:      2,
		W:          10,
		WPre:       0,
		BytesEW:    2048,
		BytesNS:    2048,
		Iterations: iters,
		InterOps:   AllReduceInter(1),
	}
}

func TestScheduleValidate(t *testing.T) {
	dec := grid.MustDecompose(grid.Cube(8), 2, 2)
	good := testSchedule(dec, LUCorners(), 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Corners = nil
	if bad.Validate() == nil {
		t.Error("no sweeps accepted")
	}
	bad = *good
	bad.Htile = 0
	if bad.Validate() == nil {
		t.Error("zero Htile accepted")
	}
	bad = *good
	bad.Iterations = 0
	if bad.Validate() == nil {
		t.Error("zero iterations accepted")
	}
	bad = *good
	bad.W = -1
	if bad.Validate() == nil {
		t.Error("negative work accepted")
	}
	bad = *good
	bad.BytesNS = -1
	if bad.Validate() == nil {
		t.Error("negative bytes accepted")
	}
}

func TestProgramOpCount(t *testing.T) {
	// Interior rank: per tile 2 recv + compute + 2 send = 5 ops; corner
	// origin: compute + 2 sends = 3 ops.
	g := grid.NewGrid(12, 12, 8)
	dec := grid.MustDecompose(g, 3, 3)
	s := testSchedule(dec, []grid.Corner{grid.NW}, 1)
	s.InterOps = nil
	tiles := s.TilesPerStack() // 4
	count := func(rank int) int {
		p := s.Program(rank)
		n := 0
		for {
			if _, ok := p.Next(); !ok {
				return n
			}
			n++
		}
	}
	center := dec.Rank(grid.Coord{I: 2, J: 2})
	origin := dec.Rank(grid.Coord{I: 1, J: 1})
	terminal := dec.Rank(grid.Coord{I: 3, J: 3})
	if got := count(center); got != 5*tiles {
		t.Errorf("center ops = %d, want %d", got, 5*tiles)
	}
	if got := count(origin); got != 3*tiles {
		t.Errorf("origin ops = %d, want %d", got, 3*tiles)
	}
	if got := count(terminal); got != 3*tiles { // 2 recvs + compute
		t.Errorf("terminal ops = %d, want %d", got, 3*tiles)
	}
}

func TestProgramPreComputeOrdering(t *testing.T) {
	// With WPre > 0 the first op of every tile must be the pre-compute,
	// before any receive (paper Figure 4(a)).
	g := grid.NewGrid(8, 8, 4)
	dec := grid.MustDecompose(g, 2, 2)
	s := testSchedule(dec, LUCorners(), 1)
	s.WPre = 3
	s.Htile = 1
	p := s.Program(dec.Rank(grid.Coord{I: 2, J: 2}))
	op, ok := p.Next()
	if !ok || op.Kind != simmpi.OpCompute || op.Dur != 3 {
		t.Fatalf("first op = %+v, want pre-compute", op)
	}
	op, _ = p.Next()
	if op.Kind != simmpi.OpRecv {
		t.Fatalf("second op = %+v, want recv", op)
	}
}

func TestRecvBeforeComputeBeforeSend(t *testing.T) {
	g := grid.NewGrid(8, 8, 4)
	dec := grid.MustDecompose(g, 2, 2)
	s := testSchedule(dec, []grid.Corner{grid.SE}, 1)
	s.InterOps = nil
	p := s.Program(dec.Rank(grid.Coord{I: 1, J: 1})) // terminal for SE sweep
	kinds := []simmpi.OpKind{}
	for {
		op, ok := p.Next()
		if !ok {
			break
		}
		kinds = append(kinds, op.Kind)
	}
	tiles := s.TilesPerStack()
	if len(kinds) != 3*tiles {
		t.Fatalf("got %d ops", len(kinds))
	}
	for i := 0; i < tiles; i++ {
		if kinds[3*i] != simmpi.OpRecv || kinds[3*i+1] != simmpi.OpRecv || kinds[3*i+2] != simmpi.OpCompute {
			t.Fatalf("tile %d kinds = %v", i, kinds[3*i:3*i+3])
		}
	}
}

func runSchedule(t *testing.T, s *Schedule, mach machine.Machine) simmpi.Result {
	t.Helper()
	topo, err := simnet.NewMachineTopology(mach, s.Dec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := new(simmpi.Sim).Simulate(topo, s.Programs(), simmpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllBenchmarkStructuresRunWithoutDeadlock(t *testing.T) {
	g := grid.NewGrid(16, 16, 8)
	dec := grid.MustDecompose(g, 4, 4)
	for _, tc := range []struct {
		name    string
		corners []grid.Corner
	}{
		{"LU", LUCorners()},
		{"Sweep3D", Sweep3DCorners()},
		{"Chimaera", ChimaeraCorners()},
	} {
		s := testSchedule(dec, tc.corners, 2)
		res := runSchedule(t, s, machine.XT4())
		if res.Time <= 0 {
			t.Errorf("%s: zero time", tc.name)
		}
	}
}

func TestEmergentSweepPrecedence(t *testing.T) {
	// The simulator's emergent iteration time must order the three
	// structures by their fill counts: with identical per-sweep work,
	// LU-per-sweep < Sweep3D-per-sweep < Chimaera-per-sweep when
	// normalised, because nfull(LU)/2 = 1, Sweep3D: (2 full + 2 diag)/8,
	// Chimaera: (4 full + 2 diag)/8. Compare Sweep3D vs Chimaera directly
	// (same sweep count): Chimaera's extra full fills make it slower.
	g := grid.NewGrid(16, 16, 8)
	dec := grid.MustDecompose(g, 4, 4)
	mach := machine.XT4SingleCore()
	s3d := runSchedule(t, testSchedule(dec, Sweep3DCorners(), 1), mach)
	chi := runSchedule(t, testSchedule(dec, ChimaeraCorners(), 1), mach)
	if chi.Time <= s3d.Time {
		t.Errorf("Chimaera structure (%v) should be slower than Sweep3D (%v)", chi.Time, s3d.Time)
	}
}

func TestPipelinedPairIsFasterThanOppositePair(t *testing.T) {
	// Two sweeps from the same corner pipeline back-to-back; two from
	// opposite corners serialise with a full fill between them.
	g := grid.NewGrid(16, 16, 8)
	dec := grid.MustDecompose(g, 4, 4)
	mach := machine.XT4SingleCore()
	same := runSchedule(t, testSchedule(dec, []grid.Corner{grid.NW, grid.NW}, 1), mach)
	opp := runSchedule(t, testSchedule(dec, []grid.Corner{grid.NW, grid.SE}, 1), mach)
	if same.Time >= opp.Time {
		t.Errorf("pipelined pair (%v) should beat full pair (%v)", same.Time, opp.Time)
	}
}

func TestStencilInterRunsAndChunks(t *testing.T) {
	g := grid.NewGrid(16, 16, 8)
	dec := grid.MustDecompose(g, 4, 4)
	s := testSchedule(dec, LUCorners(), 2)
	s.InterOps = StencilInter(dec, 100, 3000, 2000) // forces chunking
	res := runSchedule(t, s, machine.XT4())
	if res.Time <= 0 {
		t.Error("zero time")
	}
	// Chunked exchange: each >1024 halo splits into eager pieces.
	ops := StencilInter(dec, 100, 3000, 2000)(dec.Rank(grid.Coord{I: 2, J: 2}))
	sends, recvs := 0, 0
	for _, op := range ops {
		switch op.Kind {
		case simmpi.OpSend:
			sends++
			if op.Bytes > 1024 {
				t.Errorf("oversized stencil chunk: %d bytes", op.Bytes)
			}
		case simmpi.OpRecv:
			recvs++
		}
	}
	if sends != recvs || sends != 2*3+2*2 { // 3 chunks EW ×2 + 2 chunks NS ×2
		t.Errorf("sends=%d recvs=%d", sends, recvs)
	}
}

func TestAllReduceInterCount(t *testing.T) {
	ops := AllReduceInter(2)(0)
	if len(ops) != 2 || ops[0].Kind != simmpi.OpAllReduce || ops[1].Kind != simmpi.OpAllReduce {
		t.Errorf("ops = %+v", ops)
	}
}

func TestMultiIterationScaling(t *testing.T) {
	// Two iterations should cost roughly twice one iteration (the pipeline
	// drains between iterations because of the all-reduce barrier).
	g := grid.NewGrid(16, 16, 8)
	dec := grid.MustDecompose(g, 4, 4)
	mach := machine.XT4SingleCore()
	one := runSchedule(t, testSchedule(dec, Sweep3DCorners(), 1), mach)
	two := runSchedule(t, testSchedule(dec, Sweep3DCorners(), 2), mach)
	ratio := two.Time / one.Time
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("iteration scaling ratio = %v, want ≈2", ratio)
	}
}

func TestSingleRankSchedule(t *testing.T) {
	g := grid.NewGrid(8, 8, 4)
	dec := grid.MustDecompose(g, 1, 1)
	s := testSchedule(dec, Sweep3DCorners(), 1)
	res := runSchedule(t, s, machine.XT4SingleCore())
	// One rank: no communication; time = sweeps × tiles × W.
	want := 8 * float64(s.TilesPerStack()) * s.W
	if res.Time != want {
		t.Errorf("single-rank time = %v, want %v", res.Time, want)
	}
}

func TestLogGPDependencyChain(t *testing.T) {
	// On a 1×2 pipeline with one sweep and one tile, the downstream rank
	// finishes exactly at W + TotalComm + W (single-core nodes).
	p := logp.XT4()
	g := grid.NewGrid(2, 1, 1)
	dec := grid.MustDecompose(g, 2, 1)
	s := &Schedule{
		Dec: dec, Corners: []grid.Corner{grid.NW}, Htile: 1,
		W: 50, BytesEW: 512, BytesNS: 512, Iterations: 1,
	}
	res := runSchedule(t, s, machine.XT4SingleCore())
	want := 50 + p.TotalCommOffNode(512) + 50
	if res.Time != want {
		t.Errorf("chain time = %v, want %v", res.Time, want)
	}
}
