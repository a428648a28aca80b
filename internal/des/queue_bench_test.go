package des

// The hold model (steady-state pop/push at a random time increment) over
// the engine's radix queue, at queue sizes bracketing what real runs reach
// (a 16K-rank wavefront keeps ~16K events pending; a 64K-rank one ~100K
// per shard). Run with:
//
//	go test -run '^$' -bench BenchmarkQueueHold ./internal/des/

import (
	"math/rand"
	"strconv"
	"testing"
)

func benchHold(b *testing.B, size int, incr func(*rand.Rand) float64) {
	rng := rand.New(rand.NewSource(1))
	var q radixQueue
	for i := 0; i < size; i++ {
		q.push(mkEvent(rng.Float64()*float64(size)*0.01, uint64(i)))
	}
	seq := uint64(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		q.push(mkEvent(ev.time()+incr(rng), seq))
		seq++
	}
}

func BenchmarkQueueHold(b *testing.B) {
	dists := []struct {
		name string
		incr func(*rand.Rand) float64
	}{
		// Exponential inter-event gaps: the M/M/1-ish default of the
		// hold-model literature.
		{"exp", func(r *rand.Rand) float64 { return r.ExpFloat64() }},
		// Bimodal: mostly short hops with occasional far-future events,
		// the shape wavefront protocols produce (o/L hops vs DMA+bus).
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Intn(10) == 0 {
				return 50 + 50*r.Float64()
			}
			return 0.1 * r.Float64()
		}},
	}
	sizes := []int{1 << 10, 1 << 14, 1 << 17, 1 << 20}
	for _, d := range dists {
		for _, size := range sizes {
			b.Run(d.name+"/n="+strconv.Itoa(size), func(b *testing.B) {
				benchHold(b, size, d.incr)
			})
		}
	}
}
