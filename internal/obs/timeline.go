package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// This file renders a recording as Chrome trace-event JSON, the format
// ui.perfetto.dev (and chrome://tracing) loads directly. The object form
// {"traceEvents": [...]} is used so downstream tooling can schema-check the
// file. Two process groups organise the tracks:
//
//	pid 1 "ranks":  one thread per rank, complete ("X") events for every
//	                compute/send/recv/collective span
//	pid 2 "links":  one thread per interconnect link that saw traffic,
//	                occupancy events with the queueing delay in args
//
// Simulated time is already in µs — the trace-event "ts" unit — so
// timestamps pass through unscaled. All event ordering is content-derived
// (see the Recorder list methods), so the file is byte-identical for any
// worker count.

// Trace-event process ids per track family.
const (
	pidRanks = 1
	pidLinks = 2
)

// TimelineOptions customises WriteTimeline.
type TimelineOptions struct {
	// LinkName labels link tracks (e.g. topo.Interconnect.LinkName);
	// nil falls back to "link<i>".
	LinkName func(link int) string
}

// WriteTimeline renders the recording as Chrome trace-event JSON.
func WriteTimeline(w io.Writer, r *Recorder, opt TimelineOptions) error {
	bw := bufio.NewWriter(w)
	e := &traceWriter{w: bw}
	bw.WriteString("{\"traceEvents\":[")

	spans := r.SpanList()
	if len(spans) > 0 {
		e.meta("process_name", pidRanks, 0, "name", `"ranks"`)
		seen := int32(-1)
		for i := range spans {
			if spans[i].Rank != seen {
				seen = spans[i].Rank
				e.meta("thread_name", pidRanks, int(seen), "name", strconv.Quote(fmt.Sprintf("rank %d", seen)))
			}
		}
		for i := range spans {
			s := &spans[i]
			args := ""
			switch s.Kind {
			case SpanSend, SpanRecv:
				args = fmt.Sprintf(`{"peer":%d,"bytes":%d}`, s.Peer, s.Bytes)
			case SpanAllReduce, SpanBcast:
				args = fmt.Sprintf(`{"bytes":%d}`, s.Bytes)
			}
			e.complete(SpanName(s.Kind), "rank", pidRanks, int(s.Rank), s.Start, s.End-s.Start, args)
		}
	}

	links := r.LinkList()
	if len(links) > 0 {
		e.meta("process_name", pidLinks, 0, "name", `"links"`)
		// One thread per distinct link, ordered by link index.
		ids := make([]int32, 0, 8)
		last := int32(-1)
		for i := range links {
			if links[i].Link != last {
				ids = append(ids, links[i].Link)
				last = links[i].Link
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		ids = dedupInt32(ids)
		tidOf := make(map[int32]int, len(ids))
		for tid, id := range ids {
			tidOf[id] = tid
			name := fmt.Sprintf("link%d", id)
			if opt.LinkName != nil {
				name = opt.LinkName(int(id))
			}
			e.meta("thread_name", pidLinks, tid, "name", encodeJSONString(name))
		}
		for i := range links {
			l := &links[i]
			e.complete("xfer", "link", pidLinks, tidOf[l.Link], l.Start, l.Dur,
				fmt.Sprintf(`{"wait":%s}`, fmtG(l.Wait)))
		}
	}

	bw.WriteString("]}\n")
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// traceWriter emits trace events with the separator bookkeeping.
type traceWriter struct {
	w     *bufio.Writer
	first bool
	err   error
}

func (e *traceWriter) sep() {
	if !e.first {
		e.first = true
		return
	}
	e.w.WriteByte(',')
}

// meta emits a metadata ("M") event; val must be pre-encoded JSON.
func (e *traceWriter) meta(name string, pid, tid int, key, val string) {
	e.sep()
	_, err := fmt.Fprintf(e.w, "\n{\"name\":%q,\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{%q:%s}}",
		name, pid, tid, key, val)
	if err != nil && e.err == nil {
		e.err = err
	}
}

// complete emits a complete ("X") event; args must be pre-encoded JSON or
// empty.
func (e *traceWriter) complete(name, cat string, pid, tid int, ts, dur float64, args string) {
	e.sep()
	e.w.WriteString("\n{\"name\":")
	e.w.WriteString(encodeJSONString(name))
	fmt.Fprintf(e.w, ",\"cat\":%q,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d",
		cat, fmtG(ts), fmtG(dur), pid, tid)
	if args != "" {
		e.w.WriteString(",\"args\":")
		e.w.WriteString(args)
	}
	_, err := e.w.WriteString("}")
	if err != nil && e.err == nil {
		e.err = err
	}
}

// encodeJSONString encodes an arbitrary string as a JSON string literal.
func encodeJSONString(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return `"?"`
	}
	return string(b)
}

// dedupInt32 removes adjacent duplicates from a sorted slice.
func dedupInt32(s []int32) []int32 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
