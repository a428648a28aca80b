package campaign

import (
	"fmt"
	"strconv"
	"strings"
)

// KeyComponent is one labelled dimension of a run's content identity — the
// unit of the hypothesis harness's single-delta check. KeyComponents
// renders the same fields ContentKey hashes, grouped at the granularity an
// experiment delta is declared at: changing a machine's LogGP parameters is
// one delta ("machine"), not eight.
type KeyComponent struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// ComponentNames lists the KeyComponent names in render order. Every run
// produces exactly these components (with "none" placeholders where a
// block is absent), so two runs always diff component-by-component.
func ComponentNames() []string {
	return []string{"app", "collective", "workload", "machine", "node", "interconnect", "placement", "mode"}
}

// KeyComponents renders the run's content identity as labelled components
// covering exactly the fields ContentKey hashes (keycomponents_test.go
// pins the two against each other: every single-field mutation that
// changes the hash changes exactly one component, and vice versa).
//
// Granularity notes:
//   - "machine" is the LogGP parameter set after overrides — an override
//     is a machine perturbation, so it lands here, not in a dimension of
//     its own (override display names are not part of run identity).
//   - "placement" carries the rank count, the decomposition shape and the
//     boundary message sizes evaluated at that decomposition: the byte
//     sizes are app sizing functions, but their values are
//     placement-derived, so a pure rank-count delta stays a single
//     component.
func (r Run) KeyComponents(mode KeyMode) []KeyComponent {
	var b strings.Builder
	f := func(v float64) { b.WriteString(strconv.FormatFloat(v, 'x', -1, 64)); b.WriteByte(' ') }
	i := func(v int) { b.WriteString(strconv.Itoa(v)); b.WriteByte(' ') }
	s := func(v string) { fmt.Fprintf(&b, "%q ", v) }
	field := func(name string) { b.WriteString(name); b.WriteByte('=') }
	component := func(name string) KeyComponent {
		c := KeyComponent{Name: name, Value: strings.TrimSuffix(b.String(), " ")}
		b.Reset()
		return c
	}

	var out []KeyComponent

	// app: everything intrinsic to the application at any placement.
	field("name")
	s(r.bm.App.Name)
	field("src")
	s(r.appSrc)
	field("grid")
	i(r.bm.App.Grid.Nx)
	i(r.bm.App.Grid.Ny)
	i(r.bm.App.Grid.Nz)
	field("htile")
	i(r.bm.App.Htile)
	field("wg_pre")
	f(r.bm.App.WgPre)
	field("wg")
	f(r.bm.App.Wg)
	field("sweeps")
	i(r.bm.App.NSweeps)
	i(r.bm.App.NFull)
	i(r.bm.App.NDiag)
	field("corners")
	for _, c := range r.bm.Corners {
		i(int(c))
	}
	field("iterations")
	i(r.Iterations)
	out = append(out, component("app"))

	// collective: the per-iteration convergence all-reduce.
	if r.bm.ConvBytes > 0 {
		field("bytes")
		i(r.bm.ConvBytes)
		field("alg")
		i(int(r.bm.ConvAlg))
	} else {
		b.WriteString("none")
	}
	out = append(out, component("collective"))

	// workload: every knob of the per-tile compute perturbation.
	if wl := r.bm.Workload; wl != nil {
		field("dist")
		s(wl.Dist)
		field("seed")
		b.WriteString(strconv.FormatUint(wl.Seed, 10))
		b.WriteByte(' ')
		field("sigma")
		f(wl.Sigma)
		field("hot")
		f(wl.HotFrac)
		f(wl.HotMul)
		if n := wl.Noise; n != nil {
			field("noise")
			f(n.Rate)
			f(n.AmpUS)
		}
		field("blocks")
		for _, blk := range wl.Blocks {
			f(blk.X0)
			f(blk.Y0)
			f(blk.X1)
			f(blk.Y1)
			f(blk.Mul)
		}
	} else {
		b.WriteString("none")
	}
	out = append(out, component("workload"))

	// machine: the LogGP parameters after overrides (names excluded, like
	// ContentKey — relabeling a machine is not a physical change).
	p := r.mach.Params
	field("G")
	f(p.G)
	field("L")
	f(p.L)
	field("o")
	f(p.O)
	field("oh")
	f(p.H)
	field("Gcopy")
	f(p.Gcopy)
	field("Gdma")
	f(p.Gdma)
	field("ochip")
	f(p.Ochip)
	field("ocopy")
	f(p.Ocopy)
	out = append(out, component("machine"))

	// node: the on-node organisation.
	field("cores")
	i(r.mach.CoresPerNode)
	field("cx_cy")
	i(r.mach.Cx)
	i(r.mach.Cy)
	field("bus_groups")
	i(r.mach.BusGroups)
	out = append(out, component("node"))

	// interconnect: the inter-node fabric.
	ic := r.mach.Interconnect
	field("kind")
	i(int(ic.Kind))
	field("dims")
	for _, d := range ic.Dims {
		i(d)
	}
	field("leaf_spine")
	i(ic.LeafRadix)
	i(ic.Spine)
	field("linkG")
	f(ic.LinkG)
	field("hopL")
	f(ic.HopL)
	out = append(out, component("interconnect"))

	// placement: rank count, decomposition shape, and the boundary bytes
	// evaluated at this decomposition.
	field("p")
	i(r.P)
	field("dec")
	i(r.dec.N)
	i(r.dec.M)
	field("ew_bytes")
	if r.bm.App.EWBytes != nil {
		i(r.bm.App.EWBytes(r.dec, r.bm.App.Htile))
	} else {
		i(-1)
	}
	field("ns_bytes")
	if r.bm.App.NSBytes != nil {
		i(r.bm.App.NSBytes(r.dec, r.bm.App.Htile))
	} else {
		i(-1)
	}
	out = append(out, component("placement"))

	// mode: the execution-mode bits that change output bytes.
	field("hist")
	if mode.Hist {
		i(1)
	} else {
		i(0)
	}
	out = append(out, component("mode"))

	return out
}

// DiffKeyComponents returns the names of the components whose values
// differ between two runs' component lists, in render order. It errors if
// the lists do not pair up name-by-name — impossible for lists produced by
// KeyComponents, which always emits every component.
func DiffKeyComponents(a, b []KeyComponent) ([]string, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("campaign: component lists have %d vs %d entries", len(a), len(b))
	}
	var diff []string
	for i := range a {
		if a[i].Name != b[i].Name {
			return nil, fmt.Errorf("campaign: component %d is %q vs %q", i, a[i].Name, b[i].Name)
		}
		if a[i].Value != b[i].Value {
			diff = append(diff, a[i].Name)
		}
	}
	return diff, nil
}
