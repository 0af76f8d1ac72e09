package main

import (
	"container/heap"
	"math"
	"math/rand"
)

// op is one client operation as the benchmark sends it: a GET, or a
// SET when set is true. t is the trace timestamp sent on the wire.
type op struct {
	t    int64
	key  uint64
	size int64
	set  bool
}

// renewalConfig describes a synthetic renewal-superposition trace, the
// shape of the paper's §3.5 synthetic workloads: objects whose request
// rates follow a Zipf law, each issuing Pareto-distributed
// interarrivals, merged in time order. The generator lives in the
// benchmark so that a change to the program's own trace generators
// cannot change the benchmark's inputs.
type renewalConfig struct {
	objects  int
	requests int
	// Object sizes are U[sizeLo, sizeHi), drawn from the seed or, with
	// fixedSizes, a fixed function of popularity rank; sizeHi <= sizeLo
	// means every size is sizeLo.
	sizeLo, sizeHi int64
	fixedSizes     bool
	ticks          float64 // timestamp ticks per unit of trace time (about one request per unit)
}

// The paper's synthetic traces: Zipf(0.8) popularity, Pareto
// interarrivals with tail index 1.5.
const (
	zipfAlpha   = 0.8
	paretoShape = 1.5
)

type arrival struct {
	t   float64
	obj int
}

type arrivals []arrival

func (h arrivals) Len() int { return len(h) }
func (h arrivals) Less(i, j int) bool {
	return h[i].t < h[j].t || (!(h[j].t < h[i].t) && h[i].obj < h[j].obj)
}
func (h arrivals) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *arrivals) Push(x interface{}) { *h = append(*h, x.(arrival)) }
func (h *arrivals) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// zipfShares returns the normalized Zipf(alpha) popularity of n ranks.
func zipfShares(n int, alpha float64) []float64 {
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = math.Pow(float64(i+1), -alpha)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// objectSizes returns the size of each object of cfg, by popularity
// rank, drawing from g unless the sizes are fixed.
func objectSizes(cfg renewalConfig, g *rand.Rand) []int64 {
	sizes := make([]int64, cfg.objects)
	for i := range sizes {
		sizes[i] = cfg.sizeLo
		if cfg.sizeHi > cfg.sizeLo {
			if cfg.fixedSizes {
				frac := math.Mod(float64(i+1)*0.6180339887498949, 1)
				sizes[i] += int64(frac * float64(cfg.sizeHi-cfg.sizeLo))
			} else {
				sizes[i] += g.Int63n(cfg.sizeHi - cfg.sizeLo)
			}
		}
	}
	return sizes
}

// renewalTrace generates the GET stream of cfg from seed.
func renewalTrace(cfg renewalConfig, seed int64) []op {
	g := rand.New(rand.NewSource(seed))
	shares := zipfShares(cfg.objects, zipfAlpha)
	sizes := objectSizes(cfg, g)
	// Mean-matched Pareto: scale xm = mean·(shape-1)/shape.
	draw := func(obj int) float64 {
		mean := 1 / shares[obj]
		xm := mean * (paretoShape - 1) / paretoShape
		return xm / math.Pow(1-g.Float64(), 1/paretoShape)
	}
	h := make(arrivals, 0, cfg.objects)
	for i := 0; i < cfg.objects; i++ {
		h = append(h, arrival{t: g.Float64() / shares[i], obj: i})
	}
	heap.Init(&h)
	out := make([]op, 0, cfg.requests)
	for len(out) < cfg.requests {
		a := heap.Pop(&h).(arrival)
		out = append(out, op{
			t:    int64(math.Round(a.t * cfg.ticks)),
			key:  uint64(a.obj) + 1,
			size: sizes[a.obj],
		})
		heap.Push(&h, arrival{t: a.t + draw(a.obj), obj: a.obj})
	}
	return out
}

// traceShape summarizes a GET stream for the README's trace table and
// for the hit-count bound: a key's first request always misses.
type traceShape struct {
	requests    int
	distinct    int
	uniqueBytes int64
	totalBytes  int64
}

func shapeOf(parts ...[]op) traceShape {
	seen := make(map[uint64]struct{}, 1024)
	var s traceShape
	for _, ops := range parts {
		for _, o := range ops {
			if o.set {
				continue
			}
			s.requests++
			s.totalBytes += o.size
			if _, ok := seen[o.key]; !ok {
				seen[o.key] = struct{}{}
				s.distinct++
				s.uniqueBytes += o.size
			}
		}
	}
	return s
}
