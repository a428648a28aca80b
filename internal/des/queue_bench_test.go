package des

// The hold model (steady-state pop/push at a random time increment) over
// the engine's radix queues, at queue sizes bracketing what real runs reach
// (a 16K-rank wavefront keeps ~16K events pending; a 64K-rank one ~100K
// per shard). The canonical variants hold the 24-byte (time, ctx, pri)
// queue of sharded runs at the pending counts of a 16K-rank run at 2 and 1
// shards; each pushed event takes the popped event's time as its ctx, and
// the burst variant pushes 64 events in a row onto one (time, ctx) key, as
// a wavefront step does. Run with:
//
//	go test -run '^$' -bench BenchmarkQueueHold ./internal/des/

import (
	"math"
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

func benchHold3(b *testing.B, size, burst int, incr func(*rand.Rand) float64) {
	rng := rand.New(rand.NewSource(1))
	mk := func(t, ctx float64, i uint64) heapEvent3 {
		return heapEvent3{tbits: math.Float64bits(t), ctx: math.Float64bits(ctx), order: i&maxPri<<slotBits | i&slotMask}
	}
	var q radixQueue3
	for i := 0; i < size; i++ {
		q.push(mk(rng.Float64()*float64(size)*0.01, 0, uint64(i)))
	}
	var key heapEvent3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		if i%burst == 0 || keyLess(key, ev) {
			key = mk(ev.time()+incr(rng), ev.time(), 0)
		}
		q.push(mk(key.time(), math.Float64frombits(key.ctx), uint64(size+i)))
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
	for _, size := range []int{1 << 13, 1 << 14} {
		for _, d := range dists {
			b.Run("canonical/"+d.name+"/n="+strconv.Itoa(size), func(b *testing.B) {
				benchHold3(b, size, 1, d.incr)
			})
		}
		b.Run("canonical/burst/n="+strconv.Itoa(size), func(b *testing.B) {
			benchHold3(b, size, 64, dists[0].incr)
		})
	}
}
