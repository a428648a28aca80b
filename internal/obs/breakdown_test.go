package obs_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/obs"
)

func TestProfileFromSpans(t *testing.T) {
	spans := []obs.Span{
		{Rank: 0, Kind: obs.SpanCompute, Peer: -1, Start: 0, End: 5},
		{Rank: 0, Kind: obs.SpanSend, Peer: 1, Bytes: 128, Start: 5, End: 9},
		{Rank: 1, Kind: obs.SpanRecv, Peer: 0, Bytes: 128, Start: 0, End: 9},
		{Rank: 7, Kind: obs.SpanCompute, Start: 0, End: 99}, // out of range: ignored
	}
	ps := obs.Profile(spans, 2)
	if ps[0].Compute != 5 || ps[0].Send != 4 || ps[0].Finish != 9 {
		t.Errorf("profile[0] = %+v", ps[0])
	}
	if ps[1].Recv != 9 || ps[1].Comm() != 9 {
		t.Errorf("profile[1] = %+v", ps[1])
	}
	if share := ps[1].CommShare(); share != 1 {
		t.Errorf("comm share = %v", share)
	}
}

func TestSummaryAndTopCommBound(t *testing.T) {
	ps := []obs.RankProfile{
		{Rank: 0, Compute: 9, Send: 1, Finish: 10},
		{Rank: 1, Compute: 2, Recv: 10, Finish: 12},
		{Rank: 2, Compute: 5, Coll: 5, Finish: 10},
	}
	s := obs.Summarize(ps)
	if s.Ranks != 3 || s.MakeSpan != 12 || s.CriticalRank != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.BoundRank != 1 {
		t.Errorf("bound rank = %d", s.BoundRank)
	}
	if math.Abs(s.TotalComm-16) > 1e-12 || math.Abs(s.TotalCompute-16) > 1e-12 {
		t.Errorf("totals = %v/%v", s.TotalCompute, s.TotalComm)
	}
	top := obs.TopCommBound(ps, 2)
	if len(top) != 2 || top[0].Rank != 1 {
		t.Errorf("top = %+v", top)
	}
	if got := obs.TopCommBound(ps, 10); len(got) != 3 {
		t.Errorf("over-sized k returned %d", len(got))
	}
}

func sweepSpans(t *testing.T) (*obs.Recorder, []obs.RankProfile, int) {
	t.Helper()
	rec, res, ranks := runSpans(t, apps.Sweep3D(grid.Cube(16), 2))
	ps := obs.Profile(rec.SpanList(), ranks)
	for r := 0; r < ranks; r++ {
		// Span compute equals the simulator's own accounting.
		if math.Abs(ps[r].Compute-res.ComputeTime[r]) > 1e-9 {
			t.Errorf("rank %d: span compute %v vs accounted %v",
				r, ps[r].Compute, res.ComputeTime[r])
		}
		if math.Abs(ps[r].Finish-res.RankFinish[r]) > 1e-9 {
			t.Errorf("rank %d: finish %v vs %v", r, ps[r].Finish, res.RankFinish[r])
		}
	}
	if s := obs.Summarize(ps); math.Abs(s.MakeSpan-res.Time) > 1e-9 {
		t.Errorf("makespan %v vs %v", s.MakeSpan, res.Time)
	}
	return rec, ps, ranks
}

// TestProfileMatchesSimulation: spans tile every rank's lifetime, and the
// profile agrees with the simulator's own per-rank accounting.
func TestProfileMatchesSimulation(t *testing.T) {
	_, ps, ranks := sweepSpans(t)
	for r := 0; r < ranks; r++ {
		if math.Abs(ps[r].Idle()) > 1e-6*(1+ps[r].Finish) {
			t.Errorf("rank %d: idle gap %v", r, ps[r].Idle())
		}
	}
	if s := obs.Summarize(ps); s.MeanCommShare <= 0 || s.MeanCommShare >= 1 {
		t.Errorf("mean comm share = %v", s.MeanCommShare)
	}
}

func TestSpansNonOverlappingPerRank(t *testing.T) {
	rec, _, ranks := sweepSpans(t)
	last := make([]float64, ranks)
	for _, s := range rec.SpanList() {
		if s.Start < last[s.Rank]-1e-9 {
			t.Fatalf("rank %d: span starts at %v before previous end %v", s.Rank, s.Start, last[s.Rank])
		}
		if s.End < s.Start {
			t.Fatalf("negative span %+v", s)
		}
		last[s.Rank] = s.End
	}
}

func TestGanttRendering(t *testing.T) {
	rec, _, ranks := sweepSpans(t)
	var buf bytes.Buffer
	obs.Gantt(&buf, rec.SpanList(), ranks, 60)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != ranks+1 {
		t.Fatalf("gantt lines = %d, want %d+axis", len(lines), ranks)
	}
	if !strings.ContainsAny(out, "csra") {
		t.Error("gantt contains no activity glyphs")
	}
	var empty bytes.Buffer
	obs.Gantt(&empty, nil, 2, 10)
	if !strings.Contains(empty.String(), "no spans") {
		t.Errorf("empty gantt = %q", empty.String())
	}
}
