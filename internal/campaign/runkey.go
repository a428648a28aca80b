package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
)

// RunKey is the content address of one campaign run: the SHA-256 of a
// canonical serialization of everything that determines the run's result —
// the application (including a custom spec's full JSON), problem grid, tile
// height, per-run boundary message sizes, convergence collective, iteration
// count, the attached workload spec (every distribution, noise and block
// knob), the machine's LogGP parameters after overrides, node shape and
// interconnect, the rank count and decomposition, and the one execution-
// mode bit that changes output bytes (histogram collection).
//
// Two runs with the same RunKey produce byte-identical JSONL payloads, so
// a ResultStore can serve one's cached result for the other. Display-only
// strings — machine labels, override names, LogGP parameter-set names —
// deliberately stay out of the key: relabeling a machine must not evict
// its results.
type RunKey [sha256.Size]byte

// String renders the key as lower-case hex, the spelling used in
// checkpoint files, cache files and HTTP responses.
func (k RunKey) String() string { return hex.EncodeToString(k[:]) }

// ParseRunKey decodes the hex spelling produced by String.
func ParseRunKey(s string) (RunKey, error) {
	var k RunKey
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("campaign: %q is not a run key", s)
	}
	copy(k[:], b)
	return k, nil
}

// KeyMode carries the execution-mode bits that are part of a run's content
// identity because they change the emitted bytes: whether duration
// histograms are collected into the row. The worker count is a pure
// throughput knob and is deliberately excluded.
type KeyMode struct {
	Hist bool
}

// ContentKey computes the run's content address. The scratch buffer is
// reused and returned grown, so a caller hashing many runs performs no
// steady-state allocations; pass nil to let the first call allocate it.
func (r Run) ContentKey(mode KeyMode, scratch []byte) (RunKey, []byte) {
	b := scratch[:0]
	f := func(v float64) {
		// Hex float formatting is exact: distinct float64 values never
		// collide, equal values always match.
		b = strconv.AppendFloat(b, v, 'x', -1, 64)
		b = append(b, '|')
	}
	i := func(v int) {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, '|')
	}
	s := func(v string) {
		// Length-prefixed so field boundaries cannot be forged by content.
		b = strconv.AppendInt(b, int64(len(v)), 10)
		b = append(b, ':')
		b = append(b, v...)
		b = append(b, '|')
	}

	b = append(b, "runkey/v1|"...)
	// Application: name + provenance (preset name, or the custom spec's
	// canonical JSON — which pins every behavior a preset name would).
	s(r.bm.App.Name)
	s(r.appSrc)
	i(r.bm.App.Grid.Nx)
	i(r.bm.App.Grid.Ny)
	i(r.bm.App.Grid.Nz)
	i(r.bm.App.Htile)
	f(r.bm.App.WgPre)
	f(r.bm.App.Wg)
	i(r.bm.App.NSweeps)
	i(r.bm.App.NFull)
	i(r.bm.App.NDiag)
	i(len(r.bm.Corners))
	for _, c := range r.bm.Corners {
		i(int(c))
	}
	// Boundary message sizes evaluated at this run's decomposition: the
	// exact values the schedule will use, capturing the app's sizing
	// functions without hashing code.
	if r.bm.App.EWBytes != nil {
		i(r.bm.App.EWBytes(r.dec, r.bm.App.Htile))
	} else {
		i(-1)
	}
	if r.bm.App.NSBytes != nil {
		i(r.bm.App.NSBytes(r.dec, r.bm.App.Htile))
	} else {
		i(-1)
	}
	i(r.bm.ConvBytes)
	i(int(r.bm.ConvAlg))
	i(r.Iterations)

	// Workload: every knob of the per-tile compute perturbation. The block
	// is appended only when a workload is attached, so the keys of all
	// workload-less runs are unchanged from pre-workload releases and their
	// cached results stay valid.
	if wl := r.bm.Workload; wl != nil {
		b = append(b, "workload|"...)
		s(wl.Dist)
		b = strconv.AppendUint(b, wl.Seed, 10)
		b = append(b, '|')
		f(wl.Sigma)
		f(wl.HotFrac)
		f(wl.HotMul)
		if n := wl.Noise; n != nil {
			b = append(b, "noise|"...)
			f(n.Rate)
			f(n.AmpUS)
		}
		i(len(wl.Blocks))
		for _, blk := range wl.Blocks {
			f(blk.X0)
			f(blk.Y0)
			f(blk.X1)
			f(blk.Y1)
			f(blk.Mul)
		}
	}

	// Machine: physical parameters only (names excluded — see type doc).
	p := r.mach.Params
	f(p.G)
	f(p.L)
	f(p.O)
	f(p.H)
	f(p.Gcopy)
	f(p.Gdma)
	f(p.Ochip)
	f(p.Ocopy)
	i(r.mach.CoresPerNode)
	i(r.mach.Cx)
	i(r.mach.Cy)
	i(r.mach.BusGroups)
	ic := r.mach.Interconnect
	i(int(ic.Kind))
	i(len(ic.Dims))
	for _, d := range ic.Dims {
		i(d)
	}
	i(ic.LeafRadix)
	i(ic.Spine)
	f(ic.LinkG)
	f(ic.HopL)

	// Placement: rank count and decomposition shape.
	i(r.P)
	i(r.dec.N)
	i(r.dec.M)

	// Execution-mode bits that change output bytes.
	if mode.Hist {
		b = append(b, "hist|"...)
	}
	return sha256.Sum256(b), b
}
