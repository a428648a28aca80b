// Package topo models the inter-node interconnect of a parallel machine as
// explicit link-level resources. The paper's plug-and-play model (Sections
// 3–4) treats the off-node network as uncontended LogGP — a message pays
// o + size×G + L regardless of where the endpoints sit. This package
// replaces that "flat wire" with a routed fabric: a 2D/3D torus with
// dimension-order routing or a two-level k-ary fat-tree with up-down
// routing, where every link is a FCFS resource (des.Resource) occupied for
// size×Glink per message.
//
// The timing model is cut-through: the serialisation time size×G of the
// LogGP equation is paid once (it covers the bottleneck link), each hop
// beyond the first adds a router pass-through latency HopL, and queueing
// delay emerges from per-link FCFS occupancy. Unlike the node bus — whose
// acquisitions always happen at the current event time — a message
// reserves its whole path at injection, walking the links at the (possibly
// future) virtual times its head would reach them. Reservations are
// therefore ordered by injection-event order, not by per-link arrival
// time: a circuit-reservation approximation that stays deterministic and
// allocation-free without per-hop events, at the cost of occasionally
// charging a later injection for a reservation made slightly ahead of
// time. A single-hop uncontended message costs exactly what the flat-wire
// model charges, so a bus-only configuration (Kind == Bus, or all ranks on
// one node) is bit-identical to the pre-interconnect simulator.
//
// Acquire is allocation-free in steady state: routes are materialised into
// a scratch buffer owned by the Interconnect (same index-addressed style as
// internal/simmpi's pools), and link lookup is pure arithmetic.
package topo

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/des"
)

// Kind selects the interconnect family.
type Kind uint8

// Interconnect kinds. The zero value Bus means "no modelled fabric": the
// flat-wire LogGP assumption of the paper, with only node buses contended.
const (
	Bus Kind = iota
	Torus2D
	Torus3D
	FatTree
)

// kindNames maps kinds to their JSON/CLI names.
var kindNames = map[Kind]string{
	Bus:     "bus",
	Torus2D: "torus2d",
	Torus3D: "torus3d",
	FatTree: "fattree",
}

// ParseKind resolves a kind name ("bus", "torus2d", "torus3d", "fattree").
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return Bus, fmt.Errorf("topo: unknown interconnect kind %q (want bus, torus2d, torus3d or fattree)", s)
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if name, ok := kindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	name, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("topo: cannot encode kind %d", uint8(k))
	}
	return json.Marshal(name)
}

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("topo: interconnect kind must be a string: %w", err)
	}
	kind, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// Spec describes an interconnect declaratively; it is embedded in machine
// descriptions and JSON campaign specs. The zero Spec is the bus-only
// flat-wire network.
type Spec struct {
	Kind Kind `json:"kind"`

	// Dims are the torus dimensions ([X, Y] or [X, Y, Z]). When omitted the
	// fabric is auto-sized to the most-cubic shape covering the node count.
	Dims []int `json:"dims,omitempty"`

	// LeafRadix is the number of nodes per leaf switch of a fat-tree
	// (default 4); Spine is the number of spine switches (default LeafRadix,
	// i.e. full bisection).
	LeafRadix int `json:"leaf_radix,omitempty"`
	Spine     int `json:"spine,omitempty"`

	// LinkG is the per-byte link occupancy in µs/byte; zero means the
	// machine's off-node G. HopL is the router pass-through latency in µs
	// charged per hop beyond the first; zero means DefaultHopL.
	LinkG float64 `json:"link_g,omitempty"`
	HopL  float64 `json:"hop_l,omitempty"`
}

// DefaultHopL is the per-hop router latency assumed when a spec does not
// set one: 0.05 µs, the order of a SeaStar-era router pass-through.
const DefaultHopL = 0.05

// Validate checks the spec's static shape (instantiation against a concrete
// node count performs the capacity checks).
func (s Spec) Validate() error {
	switch s.Kind {
	case Bus:
		if len(s.Dims) > 0 || s.LeafRadix != 0 || s.Spine != 0 || s.LinkG != 0 || s.HopL != 0 {
			return fmt.Errorf("topo: bus interconnect takes no parameters")
		}
		return nil
	case Torus2D, Torus3D:
		want := 2
		if s.Kind == Torus3D {
			want = 3
		}
		if len(s.Dims) != 0 && len(s.Dims) != want {
			return fmt.Errorf("topo: %s needs %d dims, got %v", s.Kind, want, s.Dims)
		}
		for _, d := range s.Dims {
			if d < 1 {
				return fmt.Errorf("topo: %s has non-positive dimension in %v", s.Kind, s.Dims)
			}
		}
		if s.LeafRadix != 0 || s.Spine != 0 {
			return fmt.Errorf("topo: %s does not take fat-tree parameters", s.Kind)
		}
	case FatTree:
		if len(s.Dims) != 0 {
			return fmt.Errorf("topo: fattree does not take torus dims")
		}
		if s.LeafRadix < 0 || s.Spine < 0 {
			return fmt.Errorf("topo: fattree leaf_radix/spine must be non-negative")
		}
	default:
		return fmt.Errorf("topo: unknown interconnect kind %d", uint8(s.Kind))
	}
	if s.LinkG < 0 || math.IsNaN(s.LinkG) || math.IsInf(s.LinkG, 0) {
		return fmt.Errorf("topo: link_g %v out of range", s.LinkG)
	}
	if s.HopL < 0 || math.IsNaN(s.HopL) || math.IsInf(s.HopL, 0) {
		return fmt.Errorf("topo: hop_l %v out of range", s.HopL)
	}
	return nil
}

// String renders the spec compactly for machine labels and tables, e.g.
// "torus2d[6x6]", "fattree[leaf4,spine4]" or "torus3d" when auto-sized.
func (s Spec) String() string {
	switch s.Kind {
	case Torus2D, Torus3D:
		if len(s.Dims) == 0 {
			return s.Kind.String()
		}
		out := s.Kind.String() + "["
		for i, d := range s.Dims {
			if i > 0 {
				out += "x"
			}
			out += fmt.Sprintf("%d", d)
		}
		return out + "]"
	case FatTree:
		if s.LeafRadix == 0 && s.Spine == 0 {
			return "fattree"
		}
		leaf, spine := s.LeafRadix, s.Spine
		if leaf == 0 {
			leaf = 4
		}
		if spine == 0 {
			spine = leaf
		}
		return fmt.Sprintf("fattree[leaf%d,spine%d]", leaf, spine)
	default:
		return s.Kind.String()
	}
}

// Interconnect is an instantiated link fabric for a concrete node count.
// A nil *Interconnect is the bus-only network: every method degrades to the
// flat-wire behaviour (Acquire returns 0, stats are zero).
type Interconnect struct {
	spec  Spec
	kind  Kind
	nodes int // nodes addressed by callers (≤ fabric capacity)

	// Torus geometry.
	ndims int
	dims  [3]int

	// Fat-tree geometry.
	leafRadix int
	spine     int
	leaves    int

	linkG float64 // per-byte link occupancy, µs/byte
	hopL  float64 // per-hop router latency beyond the first, µs

	links   []des.Resource
	scratch []int32 // route buffer reused across Acquire calls
	ltrace  LinkTracer
}

// LinkTracer receives one callback per link reservation: the link index,
// the service start (after queueing), the queueing delay and the occupancy,
// all in µs. Callers must guarantee single-threaded Acquire invocation
// while a tracer is installed — the simulator does, because each run
// executes on one goroutine.
type LinkTracer func(link int32, start, wait, dur float64)

// New instantiates a spec for the given node count, resolving the timing
// defaults from the platform's off-node per-byte cost g. It returns
// (nil, nil) for the bus-only kind.
func New(spec Spec, nodes int, g float64) (*Interconnect, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind == Bus {
		return nil, nil
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("topo: invalid node count %d", nodes)
	}
	ic := &Interconnect{spec: spec, kind: spec.Kind, nodes: nodes}
	ic.linkG = spec.LinkG
	if ic.linkG == 0 {
		ic.linkG = g
	}
	ic.hopL = spec.HopL
	if ic.hopL == 0 {
		ic.hopL = DefaultHopL
	}

	switch spec.Kind {
	case Torus2D, Torus3D:
		ic.ndims = 2
		if spec.Kind == Torus3D {
			ic.ndims = 3
		}
		dims, err := torusDims(spec.Dims, ic.ndims, nodes)
		if err != nil {
			return nil, err
		}
		ic.dims = dims
		fabric := dims[0] * dims[1] * dims[2]
		ic.links = make([]des.Resource, fabric*ic.ndims*2)
	case FatTree:
		ic.leafRadix = spec.LeafRadix
		if ic.leafRadix == 0 {
			ic.leafRadix = 4
		}
		ic.spine = spec.Spine
		if ic.spine == 0 {
			ic.spine = ic.leafRadix
		}
		ic.leaves = (nodes + ic.leafRadix - 1) / ic.leafRadix
		fabricNodes := ic.leaves * ic.leafRadix
		// 2 node↔leaf links per node plus 2 leaf↔spine links per pair.
		ic.links = make([]des.Resource, 2*fabricNodes+2*ic.leaves*ic.spine)
	}
	return ic, nil
}

// torusDims resolves explicit or auto-sized torus dimensions covering the
// node count. Auto-sizing picks the most-cubic shape with product ≥ nodes.
func torusDims(explicit []int, ndims, nodes int) ([3]int, error) {
	dims := [3]int{1, 1, 1}
	if len(explicit) > 0 {
		prod := 1
		for i, d := range explicit {
			dims[i] = d
			prod *= d
		}
		if prod < nodes {
			return dims, fmt.Errorf("topo: torus %v has %d nodes, need %d", explicit, prod, nodes)
		}
		return dims, nil
	}
	switch ndims {
	case 2:
		x := int(math.Ceil(math.Sqrt(float64(nodes))))
		dims[0] = x
		dims[1] = ceilDiv(nodes, x)
	case 3:
		x := int(math.Ceil(math.Cbrt(float64(nodes))))
		dims[0] = x
		rem := ceilDiv(nodes, x)
		y := int(math.Ceil(math.Sqrt(float64(rem))))
		dims[1] = y
		dims[2] = ceilDiv(rem, y)
	}
	return dims, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Spec returns the spec the fabric was instantiated from.
func (ic *Interconnect) Spec() Spec {
	if ic == nil {
		return Spec{}
	}
	return ic.spec
}

// Nodes returns the node count the fabric serves.
func (ic *Interconnect) Nodes() int {
	if ic == nil {
		return 0
	}
	return ic.nodes
}

// LinkCount returns the number of directed links in the fabric.
func (ic *Interconnect) LinkCount() int {
	if ic == nil {
		return 0
	}
	return len(ic.links)
}

// HopL returns the resolved per-hop router latency in µs.
func (ic *Interconnect) HopL() float64 {
	if ic == nil {
		return 0
	}
	return ic.hopL
}

// LinkG returns the resolved per-byte link occupancy in µs/byte.
func (ic *Interconnect) LinkG() float64 {
	if ic == nil {
		return 0
	}
	return ic.linkG
}

// Describe renders the instantiated geometry, e.g. "torus2d 6x6 (144 links)".
func (ic *Interconnect) Describe() string {
	if ic == nil {
		return "bus (flat wire, no links)"
	}
	switch ic.kind {
	case Torus2D:
		return fmt.Sprintf("torus2d %dx%d (%d links)", ic.dims[0], ic.dims[1], len(ic.links))
	case Torus3D:
		return fmt.Sprintf("torus3d %dx%dx%d (%d links)", ic.dims[0], ic.dims[1], ic.dims[2], len(ic.links))
	case FatTree:
		return fmt.Sprintf("fattree %d leaves × radix %d, %d spines (%d links)",
			ic.leaves, ic.leafRadix, ic.spine, len(ic.links))
	}
	return ic.kind.String()
}

// Reset returns every link to the idle, zero-statistics state for a fresh
// simulation on a new virtual time axis.
func (ic *Interconnect) Reset() {
	if ic == nil {
		return
	}
	for i := range ic.links {
		ic.links[i] = des.Resource{}
	}
}

// Acquire routes one message of the given size from srcNode to dstNode at
// virtual time now, reserving every link on the path FCFS, and returns the
// extra delay relative to the flat-wire model: accumulated link queueing
// plus the per-hop latency of hops beyond the first. Same-node traffic and
// a nil fabric cost zero.
func (ic *Interconnect) Acquire(srcNode, dstNode int, now float64, size int) float64 {
	if ic == nil || srcNode == dstNode {
		return 0
	}
	ic.scratch = ic.AppendRoute(ic.scratch[:0], srcNode, dstNode)
	occ := float64(size) * ic.linkG
	t := now
	for i, l := range ic.scratch {
		if i > 0 {
			t += ic.hopL
		}
		wait := ic.links[l].Acquire(t, occ)
		if ic.ltrace != nil {
			ic.ltrace(l, t+wait, wait, occ)
		}
		t += wait
	}
	return t - now
}

// SetLinkTracer installs a per-reservation tracer; pass nil to disable.
// A nil fabric ignores the call.
func (ic *Interconnect) SetLinkTracer(fn LinkTracer) {
	if ic == nil {
		return
	}
	ic.ltrace = fn
}

// AppendRoute appends the directed link indices of the route from srcNode
// to dstNode and returns the extended slice. Torus routes are
// dimension-order minimal; fat-tree routes are up-down with the spine
// chosen by destination (all traffic to one node shares a spine, the
// deterministic analogue of destination-rooted routing).
func (ic *Interconnect) AppendRoute(route []int32, srcNode, dstNode int) []int32 {
	if ic == nil || srcNode == dstNode {
		return route
	}
	if srcNode < 0 || srcNode >= ic.nodes || dstNode < 0 || dstNode >= ic.nodes {
		panic(fmt.Sprintf("topo: route %d→%d outside %d nodes", srcNode, dstNode, ic.nodes))
	}
	switch ic.kind {
	case Torus2D, Torus3D:
		return ic.appendTorusRoute(route, srcNode, dstNode)
	case FatTree:
		return ic.appendFatTreeRoute(route, srcNode, dstNode)
	}
	return route
}

// --- Torus ---

// torusCoord splits a node index into per-dimension coordinates.
func (ic *Interconnect) torusCoord(n int) [3]int {
	return [3]int{
		n % ic.dims[0],
		(n / ic.dims[0]) % ic.dims[1],
		n / (ic.dims[0] * ic.dims[1]),
	}
}

// torusNode joins coordinates back into a node index.
func (ic *Interconnect) torusNode(c [3]int) int {
	return (c[2]*ic.dims[1]+c[1])*ic.dims[0] + c[0]
}

// torusLink returns the directed link leaving the node in the given
// dimension and direction (dir 0 = +, 1 = −).
func (ic *Interconnect) torusLink(node, dim, dir int) int32 {
	return int32((node*ic.ndims+dim)*2 + dir)
}

// appendTorusRoute walks dimension-order: each dimension is corrected fully
// via its minimal wrap direction before the next (ties break positive), so
// every route is minimal and deadlock-free under the usual DOR argument.
func (ic *Interconnect) appendTorusRoute(route []int32, src, dst int) []int32 {
	cur := ic.torusCoord(src)
	want := ic.torusCoord(dst)
	for dim := 0; dim < ic.ndims; dim++ {
		size := ic.dims[dim]
		fwd := ((want[dim]-cur[dim])%size + size) % size
		steps, dir, delta := fwd, 0, 1
		if back := size - fwd; back < fwd {
			steps, dir, delta = back, 1, size-1
		}
		for s := 0; s < steps; s++ {
			route = append(route, ic.torusLink(ic.torusNode(cur), dim, dir))
			cur[dim] = (cur[dim] + delta) % size
		}
	}
	return route
}

// --- Fat-tree ---

// Fat-tree link layout: for each fabric node i, link 2i is the node→leaf
// uplink and 2i+1 the leaf→node downlink; after the node block, each
// (leaf, spine) pair owns an uplink and a downlink.
func (ic *Interconnect) nodeUp(n int) int32   { return int32(2 * n) }
func (ic *Interconnect) nodeDown(n int) int32 { return int32(2*n + 1) }
func (ic *Interconnect) leafSpine(leaf, spine, dir int) int32 {
	fabricNodes := ic.leaves * ic.leafRadix
	return int32(2*fabricNodes + (leaf*ic.spine+spine)*2 + dir)
}

// appendFatTreeRoute is up-down: node→leaf, then (for inter-leaf traffic)
// leaf→spine→leaf with the spine selected by the destination node, then
// leaf→node.
func (ic *Interconnect) appendFatTreeRoute(route []int32, src, dst int) []int32 {
	srcLeaf, dstLeaf := src/ic.leafRadix, dst/ic.leafRadix
	route = append(route, ic.nodeUp(src))
	if srcLeaf != dstLeaf {
		s := dst % ic.spine
		route = append(route, ic.leafSpine(srcLeaf, s, 0), ic.leafSpine(dstLeaf, s, 1))
	}
	return append(route, ic.nodeDown(dst))
}

// --- Reporting ---

// LinkName renders a link index for reports: torus "n14.+x" / "n3.-z",
// fat-tree "h5.up" / "l2-s1.down".
func (ic *Interconnect) LinkName(i int) string {
	if ic == nil || i < 0 || i >= len(ic.links) {
		return fmt.Sprintf("link%d", i)
	}
	switch ic.kind {
	case Torus2D, Torus3D:
		node := i / (ic.ndims * 2)
		dim := (i / 2) % ic.ndims
		sign := "+"
		if i%2 == 1 {
			sign = "-"
		}
		return fmt.Sprintf("n%d.%s%c", node, sign, "xyz"[dim])
	case FatTree:
		fabricNodes := ic.leaves * ic.leafRadix
		if i < 2*fabricNodes {
			dir := "up"
			if i%2 == 1 {
				dir = "down"
			}
			return fmt.Sprintf("h%d.%s", i/2, dir)
		}
		j := i - 2*fabricNodes
		dir := "up"
		if j%2 == 1 {
			dir = "down"
		}
		pair := j / 2
		return fmt.Sprintf("l%d-s%d.%s", pair/ic.spine, pair%ic.spine, dir)
	}
	return fmt.Sprintf("link%d", i)
}

// LinkStats returns one link's aggregate counters.
func (ic *Interconnect) LinkStats(i int) (requests, queued uint64, busy, waited float64) {
	if ic == nil {
		return 0, 0, 0, 0
	}
	return ic.links[i].Stats()
}

// MaxLinkBusy returns the largest per-link busy time; divided by the
// simulated makespan it is the utilisation of the hottest link.
func (ic *Interconnect) MaxLinkBusy() float64 {
	if ic == nil {
		return 0
	}
	var m float64
	for i := range ic.links {
		if _, _, b, _ := ic.links[i].Stats(); b > m {
			m = b
		}
	}
	return m
}

// Stats aggregates contention counters over every link.
func (ic *Interconnect) Stats() (requests, queued uint64, busy, waited float64) {
	if ic == nil {
		return 0, 0, 0, 0
	}
	for i := range ic.links {
		rq, q, b, w := ic.links[i].Stats()
		requests += rq
		queued += q
		busy += b
		waited += w
	}
	return requests, queued, busy, waited
}
