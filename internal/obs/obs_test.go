package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// handRecorder builds a small two-rank recording by hand: rank 0 computes
// then sends, rank 1 receives; one eager message and one link reservation.
func handRecorder() *Recorder {
	r := &Recorder{Spans: true, Messages: true, Links: true, Hist: true}
	r.PrepareRanks(2)
	r.RankSpan(0, SpanCompute, -1, 0, 0, 10)
	r.RankSpan(0, SpanSend, 1, 256, 10, 12)
	r.RankSpan(1, SpanRecv, 0, 256, 0, 13)
	r.AddMessages([]MsgEvent{{Send: 10, Ready: 13, Src: 0, Dst: 1, Bytes: 256}})
	r.Link(3, 10.5, 0.5, 1.5)
	return r
}

func TestRecorderFlagGating(t *testing.T) {
	r := &Recorder{} // everything off
	r.PrepareRanks(1)
	r.AddMessages([]MsgEvent{{Send: 1, Ready: 2}}) // batch append is caller-gated
	r.Link(0, 1, 0.5, 1)
	if len(r.LinkList()) != 0 {
		t.Error("disabled recorder collected link events")
	}
	if r.Hists().LinkDelay.N() != 0 {
		t.Error("disabled recorder observed histograms")
	}
}

func TestRecorderStreams(t *testing.T) {
	r := handRecorder()
	if r.Ranks() != 2 {
		t.Fatalf("Ranks = %d", r.Ranks())
	}
	spans := r.SpanList()
	if len(spans) != 3 {
		t.Fatalf("spans = %d", len(spans))
	}
	// Rank-major chronological order.
	if spans[0].Kind != SpanCompute || spans[1].Kind != SpanSend || spans[2].Rank != 1 {
		t.Errorf("span order = %+v", spans)
	}
	if got := r.MsgList(); len(got) != 1 || got[0].Dst != 1 {
		t.Errorf("msgs = %+v", got)
	}
	if got := r.LinkList(); len(got) != 1 || got[0].Wait != 0.5 {
		t.Errorf("links = %+v", got)
	}
	// Hist flag routed the link hook into the histograms.
	if r.Hists().LinkDelay.N() != 1 {
		t.Errorf("hists = link %d", r.Hists().LinkDelay.N())
	}
}

func TestRecorderListsSortByContent(t *testing.T) {
	r := &Recorder{Messages: true, Links: true}
	r.PrepareRanks(0)
	// Insert out of order; the lists must come back content-sorted.
	r.AddMessages([]MsgEvent{
		{Send: 5, Src: 1, Dst: 0},
		{Send: 1, Src: 0, Dst: 1},
		{Send: 5, Src: 0, Dst: 2},
	})
	r.Link(7, 4, 0, 1)
	r.Link(2, 4, 0, 1)
	r.Link(9, 1, 0, 1)

	msgs := r.MsgList()
	if msgs[0].Send != 1 || msgs[1].Src != 0 || msgs[2].Src != 1 {
		t.Errorf("msg order = %+v", msgs)
	}
	links := r.LinkList()
	if links[0].Link != 9 || links[1].Link != 2 || links[2].Link != 7 {
		t.Errorf("link order = %+v", links)
	}
}

func TestRecorderResetAndReuse(t *testing.T) {
	r := handRecorder()
	r.Reset()
	if len(r.SpanList()) != 0 || len(r.MsgList()) != 0 || len(r.LinkList()) != 0 ||
		r.Hists().LinkDelay.N() != 0 {
		t.Fatal("Reset left data behind")
	}
	// PrepareRanks also truncates buffers kept from an earlier, larger run.
	r.PrepareRanks(4)
	r.RankSpan(3, SpanCompute, -1, 0, 0, 1)
	r.PrepareRanks(2)
	if got := len(r.SpanList()); got != 0 {
		t.Errorf("PrepareRanks kept %d stale spans", got)
	}
	r.RankSpan(1, SpanBarrier, -1, 0, 0, 1)
	if got := r.SpanList(); len(got) != 1 || got[0].Rank != 1 {
		t.Errorf("reused recorder spans = %+v", got)
	}
}

func TestSpanNames(t *testing.T) {
	want := map[uint8]string{
		SpanCompute:   "compute",
		SpanSend:      "send",
		SpanRecv:      "recv",
		SpanAllReduce: "allreduce",
		SpanBcast:     "bcast",
		SpanBarrier:   "barrier",
	}
	for kind, name := range want {
		if got := SpanName(kind); got != name {
			t.Errorf("SpanName(%d) = %q, want %q", kind, got, name)
		}
	}
	if got := SpanName(200); got != "op" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestEnsureParent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a", "b", "out.json")
	if err := EnsureParent(path); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Dir(path)); err != nil || !st.IsDir() {
		t.Fatalf("parent not created: %v", err)
	}
	// Bare filenames and existing directories are no-ops.
	if err := EnsureParent("bare.json"); err != nil {
		t.Errorf("bare filename: %v", err)
	}
	if err := EnsureParent(path); err != nil {
		t.Errorf("existing parent: %v", err)
	}
}
