package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// This file renders a recording as a sampled CSV time series: the
// instantaneous state of the simulation at t = 0, Δt, 2Δt, … Sampling is
// post-processing over the recorded streams, not a hot-path hook — the
// simulator pays nothing extra for it beyond recording the streams
// themselves. Counts come from a merged delta walk (every span, message and
// link event contributes a +1/−1 edge), so a sample costs O(log) amortised
// rather than a scan, and the interval-summed link busy time accumulates in
// the sorted link-event order, keeping the floating-point sums — and the
// file bytes — identical for every worker count.

// sampleCols are the delta-counted columns of the CSV, in output order.
const (
	colCompute = iota
	colSend
	colRecv
	colColl
	colDone
	colMsgs
	colRdv
	colLinks
	numCols
)

// sampleHeader is the CSV header line.
const sampleHeader = "t_us,ranks_compute,ranks_send,ranks_recv,ranks_coll,ranks_done,msgs_inflight,rdv_inflight,links_busy,link_busy_us"

// sampleDelta is one +1/−1 edge of a counted quantity.
type sampleDelta struct {
	t   float64
	col int32
	d   int32
}

// spanCol maps a span kind to its rank-state column.
func spanCol(kind uint8) int32 {
	switch kind {
	case SpanSend:
		return colSend
	case SpanRecv:
		return colRecv
	case SpanAllReduce, SpanBcast, SpanBarrier:
		return colColl
	}
	return colCompute
}

// WriteSamples renders the recording as a CSV time series sampled every Δt
// µs of simulated time, from 0 through the first sample at or past the end
// of the recording. A sample reports the state at that instant (a span
// ending exactly at the sample time has ended); link_busy_us is the total
// link occupancy inside the preceding interval, summed over links.
func WriteSamples(w io.Writer, r *Recorder, every float64) error {
	if every <= 0 {
		return fmt.Errorf("obs: sample interval %v must be positive", every)
	}
	spans := r.SpanList()
	msgs := r.MsgList()
	links := r.LinkList()

	var deltas []sampleDelta
	add := func(t float64, col, d int32) {
		deltas = append(deltas, sampleDelta{t: t, col: col, d: d})
	}
	// Rank-state edges, plus one "done" edge per rank at its last span end.
	lastEnd := make([]float64, r.Ranks())
	for i := range spans {
		s := &spans[i]
		add(s.Start, spanCol(s.Kind), 1)
		add(s.End, spanCol(s.Kind), -1)
		if s.End > lastEnd[s.Rank] {
			lastEnd[s.Rank] = s.End
		}
	}
	for _, t := range lastEnd {
		add(t, colDone, 1)
	}
	for i := range msgs {
		m := &msgs[i]
		add(m.Send, colMsgs, 1)
		add(m.Ready, colMsgs, -1)
		if m.Rdv {
			add(m.Send, colRdv, 1)
			add(m.Ready, colRdv, -1)
		}
	}
	for i := range links {
		l := &links[i]
		add(l.Start, colLinks, 1)
		add(l.Start+l.Dur, colLinks, -1)
	}
	sort.Slice(deltas, func(i, j int) bool {
		a, b := &deltas[i], &deltas[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.d < b.d
	})

	var end float64
	for i := range deltas {
		if deltas[i].t > end {
			end = deltas[i].t
		}
	}
	steps := int(end / every)
	if float64(steps)*every < end {
		steps++
	}

	bw := bufio.NewWriter(w)
	bw.WriteString(sampleHeader)
	bw.WriteByte('\n')
	var counts [numCols]int64
	next := 0
	li := 0 // link events with Start < t, candidates for interval busy time
	for step := 0; step <= steps; step++ {
		t := float64(step) * every
		for next < len(deltas) && deltas[next].t <= t {
			counts[deltas[next].col] += int64(deltas[next].d)
			next++
		}
		// Link occupancy inside (t−Δt, t], clipped per event and summed in
		// sorted order. Events are sorted by Start, so everything relevant
		// to this interval starts before t; li skips events that ended
		// before the interval for good once the window passes them.
		lo := t - every
		var busy float64
		for li < len(links) && links[li].Start+links[li].Dur <= lo {
			li++
		}
		for j := li; j < len(links) && links[j].Start <= t; j++ {
			s, e := links[j].Start, links[j].Start+links[j].Dur
			if s < lo {
				s = lo
			}
			if e > t {
				e = t
			}
			if e > s {
				busy += e - s
			}
		}
		bw.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
		for _, c := range counts {
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatInt(c, 10))
		}
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatFloat(busy, 'g', -1, 64))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
