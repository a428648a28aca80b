package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/campaign"
)

// missEvery sets the share of served campaigns that carry a fresh LogGP
// override, whose runs no earlier campaign has cached: one in each block
// of missEvery consecutive campaigns, at a seeded position.
const missEvery = 10

// traffic generates the served workload's campaigns from a seed. Each is
// a sub-spec of the workloads builtin, whose runs the server's set-up
// has cached. A hit campaign takes one to three of the builtin's 30 app
// variants and a non-empty subset of its machines, rank counts and LogGP
// overrides. A miss campaign takes one app variant, every machine and
// rank count, a non-empty subset of the overrides and one fresh override
// with a seeded random latency scale, so six of its runs must be
// simulated and stored beside the cached ones. Misses have this fixed
// shape and a fixed share because they take most of the server's time:
// a seed that drew more or larger misses would read as a slower server.
// The same seed always gives the same sequence.
type traffic struct {
	rng     *rand.Rand
	base    campaign.Spec
	seed    int64
	n       int
	missPos int // position of the miss in the current block
}

func newTraffic(seed int64) *traffic {
	return &traffic{rng: rand.New(rand.NewSource(seed)), base: campaign.Workloads(), seed: seed}
}

// next returns the next campaign and whether it carries uncached runs.
func (t *traffic) next() (campaign.Spec, bool) {
	if t.n%missEvery == 0 {
		t.missPos = t.rng.Intn(missEvery)
	}
	miss := t.n%missEvery == t.missPos
	t.n++
	s := campaign.Spec{
		Name:       fmt.Sprintf("served-%d-%d", t.seed, t.n),
		Iterations: t.base.Iterations,
		LogGP:      subset(t.rng, t.base.LogGP),
	}
	if !miss {
		s.Apps = pick(t.rng, t.base.Apps, 1+t.rng.Intn(3))
		s.Machines = subset(t.rng, t.base.Machines)
		s.Ranks = subset(t.rng, t.base.Ranks)
		return s, false
	}
	s.Apps = pick(t.rng, t.base.Apps, 1)
	s.Machines = t.base.Machines
	s.Ranks = t.base.Ranks
	s.LogGP = append(s.LogGP, campaign.ParamOverride{
		Name:  fmt.Sprintf("fresh-%d-%d", t.seed, t.n),
		Scale: map[string]float64{"L": 1.05 + t.rng.Float64()},
	})
	return s, true
}

// pick returns k distinct elements of xs in their original order.
func pick[T any](rng *rand.Rand, xs []T, k int) []T {
	idx := rng.Perm(len(xs))[:k]
	sort.Ints(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// subset returns a random non-empty subset of xs in its original order.
func subset[T any](rng *rand.Rand, xs []T) []T {
	mask := 1 + rng.Intn(1<<len(xs)-1)
	var out []T
	for i, x := range xs {
		if mask&(1<<i) != 0 {
			out = append(out, x)
		}
	}
	return out
}
