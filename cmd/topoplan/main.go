// Command topoplan compares inter-node interconnect topologies for one
// workload: it runs the discrete-event simulator with the off-node network
// modelled as the paper's flat wire (bus-only), a 2D/3D torus and a
// two-level fat-tree, and reports the analytic-vs-simulated abstraction
// error per topology together with per-link utilisation — the Table 6
// abstraction-error study extended to richer networks.
//
// Usage:
//
//	topoplan -app sweep3d -grid 32 -ranks 256 -cores 2
//	topoplan -app lu -grid 48 -ranks 144 -topos torus2d,fattree -links 8
//	topoplan -app chimaera -grid 32 -ranks 64 -hopl 0.2 -linkg 0.001
//
// Per-link utilisation is busy time divided by the simulated makespan; the
// hottest links show where a topology saturates first.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/stats"
	"repro/internal/topo"
)

func main() {
	app := flag.String("app", "sweep3d", "benchmark: lu, sweep3d or chimaera")
	gridEdge := flag.Int("grid", 32, "cubic problem size (edge cells)")
	htile := flag.Int("htile", 0, "tile height (0: benchmark default)")
	ranks := flag.Int("ranks", 64, "MPI rank count")
	cores := flag.Int("cores", 2, "cores per node")
	topos := flag.String("topos", "bus,torus2d,torus3d,fattree", "comma-separated topologies to compare")
	linkG := flag.Float64("linkg", 0, "per-byte link occupancy µs/byte (0: machine G)")
	hopL := flag.Float64("hopl", 0, "per-hop router latency µs (0: default)")
	topLinks := flag.Int("links", 5, "hottest links to list per topology (0: none)")
	iters := flag.Int("iterations", 1, "wavefront iterations")
	flag.Parse()

	bm, err := benchmark(*app, *gridEdge, *htile)
	check(err)
	bm = bm.WithIterations(*iters)
	base, err := machine.XT4MultiCore(*cores)
	check(err)
	dec, err := grid.SquareDecomposition(bm.App.Grid, *ranks)
	check(err)

	rep, err := core.New(bm.App, base).Evaluate(dec)
	check(err)
	fmt.Printf("# %s %s, htile %d, P=%d on %s — %d nodes, model %.4g µs (uncontended LogGP)\n",
		bm.App.Name, bm.App.Grid, bm.App.Htile, dec.P(), base.Name, base.Nodes(dec.P()), rep.Total)

	type row struct {
		name    string
		ic      *topo.Interconnect
		res     simmpi.Result
		simTime float64
		hists   *obs.SimHists
	}
	var rows []row
	sim := new(simmpi.Sim)
	for _, name := range strings.Split(*topos, ",") {
		name = strings.TrimSpace(name)
		kind, err := topo.ParseKind(name)
		check(err)
		spec := topo.Spec{Kind: kind, LinkG: *linkG, HopL: *hopL}
		if kind == topo.Bus {
			spec = topo.Spec{}
		}
		mach := base.WithInterconnect(spec)

		res, err := bm.Simulate(sim, mach, dec, simmpi.Options{Obs: &obs.Recorder{Hist: true}})
		check(err)
		rows = append(rows, row{name: name, ic: sim.Topology().Interconnect(), res: res, simTime: res.Time, hists: res.Hists})
	}

	fmt.Printf("%-10s %7s %12s %12s %9s %9s %13s %10s\n",
		"topology", "links", "model(µs)", "sim(µs)", "abs.err", "hops/msg", "link-wait(µs)", "max util")
	for _, r := range rows {
		hopsPerMsg := "-"
		if r.res.Sends > 0 && r.ic != nil {
			hopsPerMsg = fmt.Sprintf("%.2f", float64(r.res.LinkRequests)/float64(r.res.Sends))
		}
		maxUtil := "-"
		if r.ic != nil && r.simTime > 0 {
			maxUtil = fmt.Sprintf("%.2f%%", 100*r.ic.MaxLinkBusy()/r.simTime)
		}
		fmt.Printf("%-10s %7d %12.4g %12.4g %8.2f%% %9s %13.4g %10s\n",
			r.name, r.ic.LinkCount(), rep.Total, r.simTime,
			100*stats.RelErr(rep.Total, r.simTime), hopsPerMsg, r.res.LinkWait, maxUtil)
	}

	// Latency distributions: where the mean link-wait column above hides
	// tail contention, the per-message percentiles expose it.
	fmt.Printf("\n%-10s %14s %14s %14s %14s\n",
		"topology", "recv-wait p50", "recv-wait p99", "link-delay p50", "link-delay p99")
	for _, r := range rows {
		ld50, ld99 := "-", "-"
		if r.hists.LinkDelay.N() > 0 {
			ld50 = fmt.Sprintf("%.4g", r.hists.LinkDelay.Quantile(0.5))
			ld99 = fmt.Sprintf("%.4g", r.hists.LinkDelay.Quantile(0.99))
		}
		fmt.Printf("%-10s %14.4g %14.4g %14s %14s\n",
			r.name, r.hists.RecvWait.Quantile(0.5), r.hists.RecvWait.Quantile(0.99), ld50, ld99)
	}

	if *topLinks > 0 {
		for _, r := range rows {
			if r.ic == nil {
				continue
			}
			fmt.Printf("\n%s: %s, hop latency %.3g µs\n", r.name, r.ic.Describe(), r.ic.HopL())
			type linkRow struct {
				name         string
				busy, waited float64
				requests     uint64
			}
			var links []linkRow
			for i := 0; i < r.ic.LinkCount(); i++ {
				rq, _, busy, waited := r.ic.LinkStats(i)
				if rq > 0 {
					links = append(links, linkRow{r.ic.LinkName(i), busy, waited, rq})
				}
			}
			sort.Slice(links, func(a, b int) bool {
				if links[a].busy != links[b].busy {
					return links[a].busy > links[b].busy
				}
				if links[a].waited != links[b].waited {
					return links[a].waited > links[b].waited
				}
				return links[a].name < links[b].name
			})
			fmt.Printf("  %-12s %10s %9s %13s\n", "link", "messages", "util", "waited(µs)")
			for i, l := range links {
				if i >= *topLinks {
					fmt.Printf("  … %d more active links\n", len(links)-i)
					break
				}
				fmt.Printf("  %-12s %10d %8.2f%% %13.4g\n",
					l.name, l.requests, 100*l.busy/r.simTime, l.waited)
			}
		}
	}
}

// benchmark resolves a paper benchmark preset on a cubic grid.
func benchmark(name string, edge, htile int) (apps.Benchmark, error) {
	if edge <= 0 {
		return apps.Benchmark{}, fmt.Errorf("invalid grid edge %d", edge)
	}
	return apps.Preset(name, grid.Cube(edge), htile)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "topoplan:", err)
		os.Exit(1)
	}
}
