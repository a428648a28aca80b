package des

// Conservative parallel discrete-event scheduling (classic CMB-style
// windowing). A Group advances K independent Engines — the shards —
// concurrently inside a global virtual-time window [T, T+lookahead). The
// lookahead is the simulation's minimum cross-shard latency: no event
// executed inside the window can schedule an event into another shard
// earlier than the window's end, so the shards cannot causally interact
// within a window and are free to run in parallel.
//
// Cross-shard effects are not applied by the shards themselves. Each shard
// records them during the window (in simulation-owned buffers) and the
// barrier callback — which runs single-threaded between windows, with every
// shard goroutine parked — merges and applies them in a deterministic
// order. Determinism therefore does not depend on goroutine scheduling:
// shard-local event order is the engine's canonical (time, ctx, pri) order
// (Engine.AtPriCtx), and boundary effects are ordered by the barrier's
// merge, making the whole parallel run bit-identical for any shard count
// (including 1).
//
// The Group owns only the windowing machinery: worker goroutines, the
// window barrier, and progress/stall statistics. What a "boundary effect"
// is — messages, resource reservations, collective completions — belongs to
// the simulation built on top (internal/simmpi).

import (
	"fmt"
	"math"
)

// Group runs a set of shard engines through lookahead windows.
type Group struct {
	engines   []*Engine
	lookahead float64

	// Per-window scratch, reused across windows.
	windowEnd float64
	ran       []uint64 // per-shard EventsRun at window start, for stall stats

	windows uint64 // windows executed
	stalls  uint64 // (shard, window) pairs where the shard ran no events

	obs WindowObserver
}

// WindowObserver receives one observation per (shard, window) pair after
// the window closes: the window's number (starting at 1) and bounds, the
// events the shard executed inside it, and the shard's event-heap depth at
// the closing barrier. The Group invokes it single-threaded, with every
// shard goroutine parked, so implementations need no synchronisation.
type WindowObserver func(window uint64, shard int, start, end float64, events uint64, pending int)

// NewGroup prepares a windowed run over the given shard engines. The
// lookahead must be positive: it is the minimum virtual-time distance any
// cross-shard interaction travels, and with a zero lookahead windows cannot
// make progress (callers should fall back to serial execution instead).
func NewGroup(engines []*Engine, lookahead float64) *Group {
	if len(engines) == 0 {
		panic("des: group needs at least one engine")
	}
	if lookahead <= 0 || math.IsNaN(lookahead) || math.IsInf(lookahead, 0) {
		panic(fmt.Sprintf("des: invalid lookahead %v", lookahead))
	}
	return &Group{
		engines:   engines,
		lookahead: lookahead,
		ran:       make([]uint64, len(engines)),
	}
}

// Lookahead returns the group's window length.
func (g *Group) Lookahead() float64 { return g.lookahead }

// Windows returns the number of windows executed so far.
func (g *Group) Windows() uint64 { return g.windows }

// Stalls returns the number of (shard, window) pairs in which the shard
// executed no events — the barrier-stall count that diagnoses load
// imbalance across shards.
func (g *Group) Stalls() uint64 { return g.stalls }

// SetObserver installs a per-window observer; pass nil to disable. The
// nil path costs one branch per (shard, window), nothing per event.
func (g *Group) SetObserver(fn WindowObserver) { g.obs = fn }

// Run drives the shards to quiescence. Each iteration first invokes the
// barrier callback — single-threaded, with all shard goroutines parked —
// which applies buffered cross-shard effects by scheduling events into any
// of the group's engines. It then opens the next window at the earliest
// pending event across all shards and lets every shard execute its events
// with timestamps inside [T, T+lookahead) concurrently. The run ends when
// the barrier schedules nothing and no engine has pending events.
//
// The callback must not touch shard state outside a barrier, and shards
// must not touch each other's state inside a window; the Group supplies
// the happens-before edges (worker channel synchronisation) that make the
// alternation race-free.
//
// Every engine's queue is empty when Run returns, and Run drops the
// canonical queues' bucket arrays, which hold about ten times the peak
// pending count.
func (g *Group) Run(barrier func()) {
	defer func() {
		for _, eng := range g.engines {
			eng.events3.release()
		}
	}()
	if len(g.engines) == 1 {
		// One shard cannot interact across a boundary mid-window, but the
		// barrier must still drain buffered effects (e.g. link-routed
		// deliveries) between windows, so the loop structure is identical.
		for {
			barrier()
			next, ok := g.engines[0].NextEventTime()
			if !ok {
				return
			}
			g.windows++
			before := g.engines[0].EventsRun()
			g.engines[0].RunBefore(next + g.lookahead)
			if g.obs != nil {
				g.obs(g.windows, 0, next, next+g.lookahead,
					g.engines[0].EventsRun()-before, g.engines[0].Pending())
			}
		}
	}

	// Persistent workers: one goroutine per shard, window bounds broadcast
	// through per-worker channels. The channel round-trip is the only
	// synchronisation; ~1µs per window, amortised over the window's events.
	start := make([]chan float64, len(g.engines))
	done := make(chan struct{}, len(g.engines))
	for i := range g.engines {
		start[i] = make(chan float64, 1)
		go func(eng *Engine, start <-chan float64) {
			for end := range start {
				eng.RunBefore(end)
				done <- struct{}{}
			}
		}(g.engines[i], start[i])
	}
	defer func() {
		for i := range start {
			close(start[i])
		}
	}()

	for {
		barrier()
		earliest := math.Inf(1)
		any := false
		for _, eng := range g.engines {
			if t, ok := eng.NextEventTime(); ok && t < earliest {
				earliest, any = t, true
			}
		}
		if !any {
			return
		}
		g.windowEnd = earliest + g.lookahead
		g.windows++
		for i, eng := range g.engines {
			g.ran[i] = eng.EventsRun()
			start[i] <- g.windowEnd
		}
		for range g.engines {
			<-done
		}
		for i, eng := range g.engines {
			ran := eng.EventsRun() - g.ran[i]
			if ran == 0 {
				g.stalls++
			}
			if g.obs != nil {
				g.obs(g.windows, i, earliest, g.windowEnd, ran, eng.Pending())
			}
		}
	}
}
