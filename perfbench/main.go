// Command perfbench is the repository's end-to-end benchmark. It
// starts the real ravencached binary with its shipped flag defaults
// (only -addr, -capacity and, on one workload, -admit are set), drives
// it from one client over one connection, checks every reply against
// computations made apart from the program, and prints one JSON result
// line. With -trace 1 it also runs the same traffic against an
// in-process server whose policy calls are timed, and prints the
// per-layer metrics instead. See README.md.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload served-evict --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh steady --runs 10 --seconds 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Workload names, in BENCHMARK.json order.
var workloads = []string{"served-evict", "served-hit", "lookaside-admit", "offline-replay"}

// Measured operations per second of --seconds, per workload, set from
// the medians of the benchmark's own ten-seed runs (README, "Measured
// traffic"): GETs per second on served-evict and served-hit, GETs (each
// followed on a miss by a SET) on lookaside-admit, Handle calls offline.
// The measured phase is sized from these constants, never from a
// measurement, so a seed and a run length always give the same trace.
const (
	evictPerSec   = 5300
	hitPerSec     = 450000
	lookPerSec    = 2250
	offlinePerSec = 1250
)

// setupReps is how many times each run performs its set-up; setup_s is
// the median.
const setupReps = 3

// shippedWindow is ravencached's -window default in trace ticks.
const shippedWindow = 100000

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	os.Exit(run())
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Int("seconds", 15, "length of the measured phase, in seconds at the benchmark's nominal rate")
		traced   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		bin      = flag.String("server", ".bench_build/ravencached", "ravencached binary")
		spanDir  = flag.String("spans", ".bench_build/spans", "directory the traced run writes its span file to")
		describe = flag.Bool("describe", false, "print the workload's trace make-up and exit")
		extra    = flag.String("server-args", "", "extra space-separated ravencached flags, for the README's reference figures only")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if !slices.Contains(workloads, *name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want one of %s)\n", *name, strings.Join(workloads, ", "))
		return 2
	}
	if *describe {
		describeWorkload(*name, *seed, *seconds)
		return 0
	}
	if _, err := os.Stat(*bin); err != nil && *name != "offline-replay" {
		fmt.Fprintf(os.Stderr, "perfbench: server binary: %v\n", err)
		return 1
	}
	spanPath := filepath.Join(*spanDir, *name+".spans")
	var res *result
	var err error
	if *name == "offline-replay" {
		res, err = offlineResult(*seed, *seconds, *traced == 1, spanPath)
	} else {
		s := servedWorkload(*name, *seed, *seconds)
		s.extraArgs = strings.Fields(*extra)
		res, err = servedResult(s, *bin, *traced == 1, spanPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// warmSeed seeds every warm-up prefix. The warm-up is part of the timed
// set-up and, on the training workloads, ends with the first training,
// whose epoch count depends on its data; a warm-up that is the same for
// every --seed keeps setup_s a measurement of the program, not of the
// input. --seed draws the measured phase.
const warmSeed = 0

// firstInstall returns the index just past the first request whose
// timestamp crosses one training window: Raven trains inline on that
// request, so its reply means the first model is installed.
func firstInstall(ops []op, window int64) int {
	for i, o := range ops {
		if o.t-ops[0].t >= window {
			return i + 1
		}
	}
	return len(ops)
}

// warmThenMeasured returns a warm-up drawn from warmSeed that ends with
// the first model install, and n measured requests drawn from seed
// whose timestamps continue where the warm-up's end.
func warmThenMeasured(cfg renewalConfig, seed int64, n int) (warm, meas []op) {
	// About one request per unit of trace time: four windows' worth
	// always contains the first crossing.
	cfg.requests = int(4*float64(shippedWindow)/cfg.ticks) + 1000
	all := renewalTrace(cfg, warmSeed)
	warm = all[:firstInstall(all, shippedWindow)]
	cfg.requests = n
	meas = renewalTrace(cfg, seed)
	for i := range meas {
		meas[i].t += warm[len(warm)-1].t
	}
	return warm, meas
}

// servedWorkload builds the trace of a served workload.
func servedWorkload(name string, seed int64, seconds int) *servedSpec {
	switch name {
	case "served-evict":
		// Pareto renewals with variable sizes; 32 ticks per unit of trace
		// time put a training window every ~3800 requests. Sizes are a
		// fixed function of popularity rank: the seed varies the arrival
		// process, not which popular objects happen to be large. The
		// capacity is 10% of the bytes of all objects.
		cfg := renewalConfig{objects: 5000, sizeLo: 10, sizeHi: 1600, fixedSizes: true, ticks: 32}
		var objectBytes int64
		for _, sz := range objectSizes(cfg, nil) {
			objectBytes += sz
		}
		warm, meas := warmThenMeasured(cfg, seed, evictPerSec*seconds)
		return &servedSpec{
			name: name, binary: true, depth: 2, capacity: objectBytes / 10, window: shippedWindow,
			checkLRU: true, warm: warm, meas: meas,
		}
	case "served-hit":
		warm, meas := hitTrace(seed, hitPerSec*seconds)
		return &servedSpec{name: name, binary: true, depth: 32, allHit: true, warm: warm, meas: meas}
	case "lookaside-admit":
		// One-hit-wonder-heavy, the admission experiment's shape:
		// objects = requests/3, unit sizes. The cache holds 10% of the
		// objects.
		total := lookPerSec*seconds + 4000
		warm, meas := warmThenMeasured(renewalConfig{
			objects: total / 3, sizeLo: 1, ticks: 32,
		}, seed, lookPerSec*seconds)
		return &servedSpec{
			name: name, binary: false, depth: 1, capacity: int64(total / 30), admit: "learned", window: shippedWindow,
			lookaside: true, warm: warm, meas: meas,
		}
	}
	panic("unknown served workload " + name)
}

// hitTrace builds served-hit's trace: a working set that fits the
// shipped 64 MiB capacity, every object fetched once in the warm-up
// (sizes and order from warmSeed), then n Zipf GETs drawn from seed
// that all hit. Timestamps span half a training window, so the run
// never trains.
func hitTrace(seed int64, n int) (warm, meas []op) {
	const objects = 150000
	wg := rand.New(rand.NewSource(warmSeed))
	sizes := make([]int64, objects)
	for i := range sizes {
		sizes[i] = 100 + wg.Int63n(400)
	}
	ops := make([]op, 0, objects+n)
	for _, k := range wg.Perm(objects) {
		ops = append(ops, op{key: uint64(k) + 1, size: sizes[k]})
	}
	cdf := zipfShares(objects, zipfAlpha)
	for i := 1; i < len(cdf); i++ {
		cdf[i] += cdf[i-1]
	}
	g := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k, _ := slices.BinarySearch(cdf, g.Float64())
		k = min(k, objects-1)
		ops = append(ops, op{key: uint64(k) + 1, size: sizes[k]})
	}
	for i := range ops {
		ops[i].t = int64(i) * (shippedWindow / 2) / int64(len(ops))
	}
	return ops[:objects], ops[objects:]
}

// offlineWorkload builds the offline-replay trace: Pareto renewals over
// 1000 unit-size objects, as raven-sim's -synthetic pareto defaults.
// The first 30% (the warm-up) is drawn from warmSeed, the rest from
// seed.
func offlineWorkload(seed int64, seconds int) *offlineSpec {
	cfg := renewalConfig{objects: 1000, sizeLo: 1, ticks: 16}
	meas := offlinePerSec * seconds
	cfg.requests = int(math.Ceil(float64(meas) * offlineWarmFrac / (1 - offlineWarmFrac)))
	warm := renewalTrace(cfg, warmSeed)
	cfg.requests = meas
	rest := renewalTrace(cfg, seed)
	for i := range rest {
		rest[i].t += warm[len(warm)-1].t
	}
	return newOfflineSpec(warm, rest)
}
