package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/campaign"
)

func TestTrafficSameSeedSameSequence(t *testing.T) {
	a, b, c := newTraffic(7), newTraffic(7), newTraffic(8)
	differs := false
	for i := 0; i < 500; i++ {
		sa, ma := a.next()
		sb, mb := b.next()
		sc, _ := c.next()
		ja, _ := json.Marshal(sa)
		jb, _ := json.Marshal(sb)
		jc, _ := json.Marshal(sc)
		if string(ja) != string(jb) || ma != mb {
			t.Fatalf("campaign %d differs between two generators with seed 7:\n%s\n%s", i, ja, jb)
		}
		differs = differs || string(ja) != string(jc)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 generated the same 500 campaigns")
	}
}

func TestTrafficMissFraction(t *testing.T) {
	base := map[string]bool{}
	for _, o := range campaign.Workloads().LogGP {
		base[o.Name] = true
	}
	gen := newTraffic(3)
	const n = 20000
	misses := 0
	for i := 0; i < n; i++ {
		spec, miss := gen.next()
		fresh := 0
		for _, o := range spec.LogGP {
			if !base[o.Name] {
				fresh++
			}
		}
		if (fresh == 1) != miss || fresh > 1 || len(spec.LogGP) == fresh {
			t.Fatalf("campaign %d: miss=%v with %d fresh of %d overrides", i, miss, fresh, len(spec.LogGP))
		}
		if miss {
			misses++
			if i/missEvery != misses-1 {
				t.Fatalf("campaign %d is the second miss of its block of %d", i, missEvery)
			}
		}
	}
	if misses != n/missEvery {
		t.Fatalf("%d misses in %d campaigns, want one in %d", misses, n, missEvery)
	}
}

// TestTrafficSpecsAreAccepted checks that the server would accept every
// generated spec: it parses strictly and expands.
func TestTrafficSpecsAreAccepted(t *testing.T) {
	gen := newTraffic(1)
	for i := 0; i < 50; i++ {
		spec, _ := gen.next()
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := campaign.ParseSpec(body)
		if err != nil {
			t.Fatalf("campaign %d: %v\n%s", i, err, body)
		}
		if _, err := parsed.Expand(); err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric tables the
// program emits in step with the file that declares them, BENCHMARK.json.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		decl  []unitMetric
		file  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bench.EndToEnd}, {"per_layer", perLayer, bench.PerLayer}} {
		var got, want []unitMetric
		for _, m := range tc.file {
			got = append(got, unitMetric{m.Name, m.Unit})
		}
		want = tc.decl
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BENCHMARK.json has %v, the program declares %v", tc.label, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.run", Parent: -1, Start: 0, End: 100},
		{Name: "simmpi.run", Parent: 0, Start: 10, End: 70},
		{Name: "wavefront.schedule", Parent: 0, Start: 70, End: 90},
	}}
	got := tr.selfTimes()
	for layer, ns := range map[string]float64{"bench": 20, "simmpi": 60, "wavefront": 20, "core": 0} {
		if got[layer] != ns/1e6 {
			t.Errorf("self time of %s = %v ms, want %v", layer, got[layer], ns/1e6)
		}
	}
}
