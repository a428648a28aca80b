package obs

// Text renderers for the paper Section 5.4 bottleneck analysis: per-rank
// computation/communication breakdowns, aggregate pipeline statistics, the
// critical (busiest and most comm-bound) ranks, and a plain-text Gantt
// chart. The model predicts these breakdowns (Figure 11); the renderers
// measure them from a recorded run's spans (Recorder.SpanList), so model
// abstraction error is visible at per-rank granularity.
//
// Every renderer accumulates per rank only, so its result depends on each
// rank's chronological span order and not on how ranks interleave.

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// RankProfile is the activity breakdown of one rank over a run.
type RankProfile struct {
	Rank    int
	Compute float64 // time in compute spans
	Send    float64 // time blocked in sends
	Recv    float64 // time blocked in receives (includes pipeline waiting)
	Coll    float64 // time in closed-form all-reduces
	Finish  float64 // time of the rank's last span end
}

// Comm returns the total communication time (send + recv + collectives).
func (p RankProfile) Comm() float64 { return p.Send + p.Recv + p.Coll }

// Idle returns Finish − Compute − Comm: time not covered by any span
// (zero in the current runtime, where ranks are always in exactly one
// span until their program ends).
func (p RankProfile) Idle() float64 { return p.Finish - p.Compute - p.Comm() }

// CommShare returns the communication fraction of the rank's lifetime.
func (p RankProfile) CommShare() float64 {
	if p.Finish == 0 {
		return 0
	}
	return p.Comm() / p.Finish
}

// Profile aggregates spans into per-rank profiles, indexed by rank.
func Profile(spans []Span, ranks int) []RankProfile {
	out := make([]RankProfile, ranks)
	for i := range out {
		out[i].Rank = i
	}
	for _, s := range spans {
		if s.Rank < 0 || int(s.Rank) >= ranks {
			continue
		}
		p := &out[s.Rank]
		d := s.End - s.Start
		switch s.Kind {
		case SpanCompute:
			p.Compute += d
		case SpanSend:
			p.Send += d
		case SpanRecv:
			p.Recv += d
		case SpanAllReduce:
			p.Coll += d
		}
		if s.End > p.Finish {
			p.Finish = s.End
		}
	}
	return out
}

// Summary is the aggregate of all rank profiles.
type Summary struct {
	Ranks        int
	TotalCompute float64
	TotalComm    float64
	MakeSpan     float64
	// MeanCommShare is the average per-rank communication fraction.
	MeanCommShare float64
	// CriticalRank is the rank with the largest finish time; BoundRank is
	// the rank with the largest communication share.
	CriticalRank, BoundRank int
}

// Summarize aggregates per-rank profiles.
func Summarize(profiles []RankProfile) Summary {
	var s Summary
	s.Ranks = len(profiles)
	var shareSum float64
	var maxShare float64 = -1
	for _, p := range profiles {
		s.TotalCompute += p.Compute
		s.TotalComm += p.Comm()
		if p.Finish > s.MakeSpan {
			s.MakeSpan = p.Finish
			s.CriticalRank = p.Rank
		}
		share := p.CommShare()
		shareSum += share
		if share > maxShare {
			maxShare = share
			s.BoundRank = p.Rank
		}
	}
	if s.Ranks > 0 {
		s.MeanCommShare = shareSum / float64(s.Ranks)
	}
	return s
}

// TopCommBound returns the k ranks with the highest communication share,
// most-bound first.
func TopCommBound(profiles []RankProfile, k int) []RankProfile {
	sorted := make([]RankProfile, len(profiles))
	copy(sorted, profiles)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].CommShare() > sorted[j].CommShare()
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// Gantt renders a plain-text activity chart: one row per rank, buckets
// labelled by the dominant activity in that time slice (c = compute,
// s = send, r = recv, a = all-reduce, . = none).
func Gantt(w io.Writer, spans []Span, ranks, width int) {
	if width <= 0 {
		width = 80
	}
	var end float64
	for _, s := range spans {
		if s.End > end {
			end = s.End
		}
	}
	if end == 0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	bucket := end / float64(width)
	// For each rank and bucket, pick the kind covering the most time.
	type cell [4]float64 // compute, send, recv, allreduce
	cells := make([]cell, ranks*width)
	for _, s := range spans {
		if s.Rank < 0 || int(s.Rank) >= ranks || s.Kind > SpanAllReduce {
			continue
		}
		b0 := int(s.Start / bucket)
		b1 := int(s.End / bucket)
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			lo := float64(b) * bucket
			hi := lo + bucket
			overlap := min(hi, s.End) - max(lo, s.Start)
			if overlap > 0 {
				cells[int(s.Rank)*width+b][s.Kind] += overlap
			}
		}
	}
	glyphs := [4]byte{'c', 's', 'r', 'a'}
	var sb strings.Builder
	for rank := 0; rank < ranks; rank++ {
		sb.Reset()
		fmt.Fprintf(&sb, "%4d |", rank)
		for b := 0; b < width; b++ {
			c := cells[rank*width+b]
			best, bestV := -1, 0.0
			for i, v := range c {
				if v > bestV {
					best, bestV = i, v
				}
			}
			if best < 0 {
				sb.WriteByte('.')
			} else {
				sb.WriteByte(glyphs[best])
			}
		}
		fmt.Fprintln(w, sb.String())
	}
	fmt.Fprintf(w, "      0%*s%.1fµs\n", width-6, "", end)
}

// WriteBreakdown renders the paper Section 5.4 / Figure 11 style activity
// breakdown as an aligned text table: one row per rank with its compute,
// send, receive and collective time plus the communication share of its
// lifetime, followed by the aggregate summary and the most comm-bound
// ranks. Output is a pure function of the profiles (fixed-precision
// formatting, no wall-clock state), so it is golden-testable.
func WriteBreakdown(w io.Writer, profiles []RankProfile, top int) {
	fmt.Fprintf(w, "%5s %12s %12s %12s %12s %7s\n",
		"rank", "compute_us", "send_us", "recv_us", "coll_us", "comm%")
	for _, p := range profiles {
		fmt.Fprintf(w, "%5d %12.1f %12.1f %12.1f %12.1f %7.1f\n",
			p.Rank, p.Compute, p.Send, p.Recv, p.Coll, 100*p.CommShare())
	}
	s := Summarize(profiles)
	fmt.Fprintf(w, "ranks=%d makespan=%.1fµs compute=%.1fµs comm=%.1fµs mean_comm=%.1f%%\n",
		s.Ranks, s.MakeSpan, s.TotalCompute, s.TotalComm, 100*s.MeanCommShare)
	fmt.Fprintf(w, "critical rank %d (last to finish), most comm-bound rank %d\n",
		s.CriticalRank, s.BoundRank)
	if top > 0 {
		fmt.Fprint(w, "top comm-bound:")
		for _, p := range TopCommBound(profiles, top) {
			fmt.Fprintf(w, " %d(%.1f%%)", p.Rank, 100*p.CommShare())
		}
		fmt.Fprintln(w)
	}
}
