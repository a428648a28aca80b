package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func maxOf(xs []float64) float64 { return percentile(xs, 1) }

// allocCounter reads the process's cumulative heap allocation counters.
// runtime/metrics reads them without stopping the world.
type allocCounter struct{ samples []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

// read returns the bytes and objects allocated since process start.
func (a *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(a.samples)
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}

// liveHeapMB forces a collection and returns the live heap in MB. Call
// it at the end of a phase, while the phase's structures are still
// reachable: the live set is then a function of the program alone,
// whereas a heap sampled at whatever moments collections happen to run
// varies from run to run.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// span is one traced interval at a layer boundary. Spans of one run or
// one served campaign share an ID; Parent indexes the enclosing span (-1
// for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is used from one goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, id int64, parent int) int {
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// layers lists the layer names whose self time the traced run reports;
// a span's layer is its name up to the first dot.
var layers = []string{"bench", "apps", "config", "grid", "core", "wavefront", "simnet", "simmpi", "campaign", "server"}

// selfTimes returns each layer's self time in ms: the sum over its spans
// of the span's duration minus the part its child spans cover. Children
// of one span never overlap because the benchmark calls layers one at a
// time, so the covered part is the sum of the children's durations.
func (t *tracer) selfTimes() map[string]float64 {
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		if _, ok := out[layer]; !ok {
			panic(fmt.Sprintf("perfbench: span %q names no known layer", s.Name))
		}
		out[layer] += float64(s.End-s.Start-childNS[i]) / 1e6
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
