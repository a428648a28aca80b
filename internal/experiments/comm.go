// Communication experiments: Table 2 (XT4 LogGP parameter derivation),
// Figure 3 (measured vs modeled MPI end-to-end times, off-node and
// on-chip), and the all-reduce model validation (equation (9)).
package experiments

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/fitting"
	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/stats"
)

func init() {
	Register("table2", func(quick bool) (Table, error) { return Table2() })
	Register("fig3a", func(quick bool) (Table, error) { return Fig3(logp.OffNode) })
	Register("fig3b", func(quick bool) (Table, error) { return Fig3(logp.OnChip) })
	Register("allreduce", func(quick bool) (Table, error) { return AllReduceValidation(quick) })
}

// Table2 reruns the paper's parameter derivation on the simulated platform
// and compares the recovered values against the injected Table 2 constants.
func Table2() (Table, error) {
	mach := machine.XT4()
	d, err := fitting.DeriveTable2(mach)
	if err != nil {
		return Table{}, err
	}
	ref := mach.Params
	t := Table{
		ID:      "table2",
		Title:   "XT4 communication parameters derived from simulated ping-pong (paper Table 2)",
		Columns: []string{"parameter", "derived", "paper", "rel.err"},
	}
	add := func(name string, got, want float64) {
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.6g", got), fmt.Sprintf("%.6g", want),
			pct(stats.SignedRelErr(got, want))})
	}
	add("G (µs/byte)", d.G, ref.G)
	add("L (µs)", d.L, ref.L)
	add("o (µs)", d.O, ref.O)
	add("Gcopy (µs/byte)", d.Gcopy, ref.Gcopy)
	add("Gdma (µs/byte)", d.Gdma, ref.Gdma)
	add("ocopy (µs)", d.Ocopy, ref.Ocopy)
	add("o on-chip (µs)", d.Ochip, ref.Ochip)
	t.Notes = append(t.Notes,
		"derived by fitting slopes and solving Table 1 equations simultaneously, as in Section 3")
	return t, nil
}

// Fig3Point is one point of the Figure 3 curves.
type Fig3Point struct {
	Bytes     int
	Simulated float64 // "measured" half round-trip, µs
	Model     float64 // Table 1 prediction, µs
}

// Fig3Data returns the measured-vs-model curve for one communication path.
func Fig3Data(path logp.Path) ([]Fig3Point, stats.ErrorSummary, error) {
	mach := machine.XT4()
	sizes := fitting.DefaultSizes()
	meas, err := fitting.Sweep(mach, path, sizes, 4)
	if err != nil {
		return nil, stats.ErrorSummary{}, err
	}
	model := fitting.ModelCurve(mach.Params, path, sizes)
	pts := make([]Fig3Point, len(sizes))
	pred := make([]float64, len(sizes))
	act := make([]float64, len(sizes))
	for i := range sizes {
		pts[i] = Fig3Point{Bytes: sizes[i], Simulated: meas[i].Time, Model: model[i].Time}
		pred[i], act[i] = model[i].Time, meas[i].Time
	}
	return pts, stats.Summarize(pred, act), nil
}

// Fig3 renders the Figure 3(a) (off-node) or 3(b) (on-chip) comparison.
func Fig3(path logp.Path) (Table, error) {
	pts, sum, err := Fig3Data(path)
	if err != nil {
		return Table{}, err
	}
	id, fig := "fig3a", "3(a) inter-node"
	if path == logp.OnChip {
		id, fig = "fig3b", "3(b) intra-node"
	}
	t := Table{
		ID:      id,
		Title:   fmt.Sprintf("MPI end-to-end communication time, Figure %s", fig),
		Columns: []string{"bytes", "simulated(µs)", "model(µs)", "rel.err"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Bytes), f(p.Simulated), f(p.Model),
			pct(stats.SignedRelErr(p.Model, p.Simulated)),
		})
	}
	t.Notes = append(t.Notes, "model vs simulated ping-pong: "+sum.String())
	return t, nil
}

// AllReducePoint compares equation (9) with the simulated recursive-
// doubling all-reduce at one processor count.
type AllReducePoint struct {
	P, C      int
	Simulated float64
	Model     float64
}

// AllReduceData validates the all-reduce model over a sweep of processor
// counts on dual-core nodes (the paper reports <2% error up to 1024 nodes).
func AllReduceData(ps []int) ([]AllReducePoint, error) {
	mach := machine.XT4()
	out := make([]AllReducePoint, 0, len(ps))
	for _, p := range ps {
		res, err := coll.Simulate(mach, p, coll.Collective{Kind: coll.Allreduce, Bytes: 8})
		if err != nil {
			return nil, err
		}
		out = append(out, AllReducePoint{
			P:         p,
			C:         mach.CoresPerNode,
			Simulated: res.Time,
			Model:     mach.Params.AllReduceDouble(p, mach.CoresPerNode),
		})
	}
	return out, nil
}

// AllReduceValidation renders the all-reduce comparison table.
func AllReduceValidation(quick bool) (Table, error) {
	ps := []int{4, 16, 64, 256, 1024, 2048}
	if quick {
		ps = []int{4, 16, 64, 256}
	}
	pts, err := AllReduceData(ps)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "allreduce",
		Title:   "MPI all-reduce: equation (9) vs simulated recursive doubling",
		Columns: []string{"P", "cores/node", "simulated(µs)", "model(µs)", "rel.err"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.P), fmt.Sprintf("%d", p.C),
			f(p.Simulated), f(p.Model), pct(stats.SignedRelErr(p.Model, p.Simulated)),
		})
	}
	t.Notes = append(t.Notes,
		"equation (9) charges C× the per-stage cost for NIC sharing; recursive doubling overlaps more, so the closed form is an upper bound")
	return t, nil
}
