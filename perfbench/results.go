package main

import (
	"fmt"
	"os"
	"slices"
)

// pct returns the p-th percentile (nearest rank) of sorted values.
func pct(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)))
	return sorted[min(i, len(sorted)-1)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// trainings counts the requests of meas that Raven trains on: those
// whose timestamp crosses a training window, replaying the window clock
// from the first warm-up op.
func trainings(warm, meas []op, window int64) int {
	if window <= 0 || len(warm) == 0 {
		return 0
	}
	start, n := warm[0].t, 0
	for i, o := range append(append([]op(nil), warm...), meas...) {
		if o.t-start >= window {
			start = o.t
			if i >= len(warm) {
				n++
			}
		}
	}
	return n
}

// endToEnd computes the end-to-end metrics of a measured phase from its
// per-op latencies and the CPU time of the process that served it.
func endToEnd(setupS []float64, p phase, lat []int64, cpu int64) map[string]metric {
	c := countGets(p)
	s := slices.Clone(lat)
	slices.Sort(s)
	return map[string]metric{
		"setup_s":       {median(setupS), "s"},
		"lat_p50_us":    {float64(pct(s, 50)) / 1e3, "us"},
		"ohr":           {ratio(c.hits, c.gets), "share"},
		"bhr":           {ratio(c.hitBytes, c.reqBytes), "share"},
		"cpu_us_per_op": {float64(cpu) / 1e3 / float64(len(p.ops)), "us"},
	}
}

// counters are the per-layer counts a run reads from METRICS (served)
// or from the engine and RavenObs (offline), over the measured phase.
type counters struct {
	flushes, evictions, admissions, rejections int64
	sloOverruns, fallbackEvictions             int64
	scoreHits, rescores                        int64
}

func countersFromMetrics(d map[string]int64) counters {
	return counters{
		flushes: d["server.flushes"], evictions: d["cache.evictions"],
		admissions: d["cache.admissions"], rejections: d["cache.rejections"],
		sloOverruns: d["raven.slo_overruns"], fallbackEvictions: d["raven.fallback_evictions"],
		scoreHits: d["raven.score_cache_hits"], rescores: d["raven.score_rescores"],
	}
}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(r layerReport, ops int, c counters, tracedRPS, untracedRPS float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("server.self_us_per_req", float64(r.wallNs-r.policyNs())/float64(ops)/1e3, "us")
	put("server.flushes_per_req", ratio(c.flushes, int64(ops)), "1/req")
	put("cache.evictions_per_req", ratio(c.evictions, int64(ops)), "1/req")
	put("cache.reject_share", ratio(c.rejections, c.admissions+c.rejections), "share")
	put("admission.calls", float64(r.admitCalls), "count")
	put("admission.ns_per_call", ratio(r.layerNs[spanAdmit], int64(r.admitCalls)), "ns")
	observes := int64(r.requests - len(r.trains))
	put("core.observe_calls", float64(observes), "count")
	put("core.observe_ns_per_call", ratio(r.layerNs[spanObserve], observes), "ns")
	var trainMax int64
	var epochs, terms, termEpochs int64
	for _, t := range r.trains {
		trainMax = max(trainMax, t.dur)
		epochs += int64(t.rec.Result.Epochs)
		terms += int64(t.rec.Result.Terms)
		termEpochs += int64(t.rec.Result.Epochs) * int64(t.rec.Result.Terms)
	}
	put("core.trainings", float64(len(r.trains)), "count")
	put("core.train_busy_s", float64(r.trainNs)/1e9, "s")
	put("core.train_max_ms", float64(trainMax)/1e6, "ms")
	put("core.victim_calls", float64(len(r.victims)), "count")
	put("core.victim_busy_s", float64(r.layerNs[spanVictim])/1e9, "s")
	p50, p99 := victimPercentiles(r.victims)
	put("core.victim_p50_us", p50, "us")
	put("core.victim_p99_us", p99, "us")
	learned := 0
	for _, v := range r.victims {
		if v.learned {
			learned++
		}
	}
	put("core.learned_victim_share", ratio(int64(learned), int64(len(r.victims))), "share")
	put("core.slo_overruns", float64(c.sloOverruns), "count")
	put("core.fallback_evictions", float64(c.fallbackEvictions), "count")
	put("core.score_cache_hit_share", ratio(c.scoreHits, c.scoreHits+c.rescores), "share")
	put("nn.epochs_per_training", ratio(epochs, int64(len(r.trains))), "count")
	put("nn.terms_per_training", ratio(terms, int64(len(r.trains))), "count")
	put("nn.ns_per_term_epoch", ratio(r.trainNs, termEpochs), "ns")
	put("bench.tracing_overhead_share", 1-tracedRPS/untracedRPS, "share")
	return m
}

func report(name string, failures []string) bool {
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, f)
	}
	return len(failures) == 0
}

// ohrBound is the end-to-end ohr bound of BENCHMARK.json: the traced
// run's OHR must agree with the untraced run's within it.
const ohrBound = 0.1

func agree(traced, untraced float64) bool {
	return traced >= untraced*(1-ohrBound) && traced <= untraced*(1+ohrBound)
}

func rps(p phase) float64 { return float64(len(p.ops)) / (float64(p.wallNs) / 1e9) }

func servedResult(s *servedSpec, bin string, traced bool, spanPath string) (*result, error) {
	reps := setupReps
	if traced {
		reps = 1
	}
	run, err := runServedProc(s, bin, reps)
	if err != nil {
		return nil, err
	}
	e := run.e
	e2e := endToEnd(run.setupS, e.meas, e.lat(), e.cpuNs)
	res := &result{
		Correct:   report(s.name, run.failures),
		Attempted: int64(reps*len(e.warm.ops) + len(e.meas.ops)),
		Metrics:   e2e,
	}
	c := countersFromMetrics(e.delta)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d measured ops, %d trainings, ohr %.4f, lru %s, evictions %d, rejections %d, sets %d, raven.slo_overruns %d, raven.fallback_evictions %d\n",
		s.name, len(e.meas.ops), trainings(s.warm, e.meas.ops, s.window), e2e["ohr"].Value, lruNote(s), c.evictions, c.rejections, e.delta["cache.sets"], c.sloOverruns, c.fallbackEvictions)
	if !traced {
		return res, nil
	}
	base, err := runServedInProc(s, "")
	if err != nil {
		return nil, err
	}
	tr, err := runServedInProc(s, spanPath)
	if err != nil {
		return nil, err
	}
	te := tr.e
	res.Attempted += int64(len(base.e.warm.ops)+len(base.e.meas.ops)) + int64(len(te.warm.ops)+len(te.meas.ops))
	okBase := report(s.name+" (in process)", base.failures)
	ok := report(s.name+" (traced)", tr.failures) && okBase
	tc := countGets(te.meas)
	if tOHR := ratio(tc.hits, tc.gets); !agree(tOHR, e2e["ohr"].Value) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: traced OHR %.4f disagrees with ravencached's %.4f: the in-process configuration has drifted\n",
			s.name, tOHR, e2e["ohr"].Value)
		ok = false
	}
	if err := te.report.check(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: span check: %v\n", s.name, err)
		ok = false
	}
	te.report.print(os.Stderr)
	res.Correct = res.Correct && ok
	res.Metrics = perLayer(te.report, len(te.meas.ops), countersFromMetrics(te.delta), rps(te.meas), rps(base.e.meas))
	return res, nil
}

func lruNote(s *servedSpec) string {
	if !s.checkLRU {
		return "-"
	}
	ohr, _ := lruRatios(s.all(), s.effectiveCapacity(), len(s.warm))
	return fmt.Sprintf("%.4f", ohr)
}

func offlineResult(seed int64, seconds int, traced bool, spanPath string) (*result, error) {
	s := offlineWorkload(seed, seconds)
	reps := setupReps
	if traced {
		reps = 1
	}
	run, err := runOffline(s, reps, nil)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(run.setupS, run.meas, latencies(run.tm, s.warm, len(s.ops)), run.cpuNs)
	res := &result{
		Correct:   report("offline-replay", run.failures),
		Attempted: int64(reps*s.warm + len(run.meas.ops)),
		Metrics:   e2e,
	}
	lruOHR, _ := lruRatios(s.ops, s.capacity, s.warm)
	fmt.Fprintf(os.Stderr, "perfbench: offline-replay: %d measured requests, ohr %.4f, lru %.4f, evictions %d\n",
		len(run.meas.ops), e2e["ohr"].Value, lruOHR, run.stats.Evictions)
	if !traced {
		return res, nil
	}
	log := newSpanLog(run.tm.base, len(s.ops))
	tr, err := runOffline(s, 1, log)
	if err != nil {
		return nil, err
	}
	res.Attempted += int64(len(s.ops))
	ok := report("offline-replay (traced)", tr.failures)
	tOHR := ratio(countGets(tr.meas).hits, countGets(tr.meas).gets)
	if !agree(tOHR, e2e["ohr"].Value) {
		fmt.Fprintf(os.Stderr, "perfbench: offline-replay: traced OHR %.4f disagrees with untraced %.4f\n", tOHR, e2e["ohr"].Value)
		ok = false
	}
	rep := log.report(tr.tm, s.warm, len(s.ops), tr.meas.wallNs)
	if err := rep.check(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: offline-replay: span check: %v\n", err)
		ok = false
	}
	rep.print(os.Stderr)
	if err := writeSpans(spanPath, log, tr.tm, len(s.ops)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	c := counters{
		evictions: tr.stats.Evictions, admissions: tr.stats.Admissions, rejections: tr.stats.Rejections,
		sloOverruns:       tr.ro.SLOOverruns.Load() - tr.roWarm[0],
		fallbackEvictions: tr.ro.FallbackEvictions.Load() - tr.roWarm[1],
	}
	res.Correct = res.Correct && ok
	res.Metrics = perLayer(rep, len(tr.meas.ops), c, rps(tr.meas), rps(run.meas))
	return res, nil
}

// describeWorkload prints a workload's trace make-up (README tables).
func describeWorkload(name string, seed int64, seconds int) {
	if name == "offline-replay" {
		s := offlineWorkload(seed, seconds)
		sh := shapeOf(s.ops)
		lru, _ := lruRatios(s.ops, s.capacity, s.warm)
		fmt.Printf("%s seed=%d: requests=%d warm=%d objects=%d uniqueBytes=%d capacity=%d window=%d trainings=%d lruOHR=%.4f\n",
			name, seed, sh.requests, s.warm, sh.distinct, sh.uniqueBytes, s.capacity, s.window,
			trainings(s.ops[:s.warm], s.ops[s.warm:], s.window), lru)
		return
	}
	s := servedWorkload(name, seed, seconds)
	sh := shapeOf(s.warm, s.meas)
	lru, _ := lruRatios(s.all(), s.effectiveCapacity(), len(s.warm))
	fmt.Printf("%s seed=%d: requests=%d warm=%d measured=%d objects=%d uniqueBytes=%d capacity=%d ticks=[%d,%d] trainings=%d lruOHR=%.4f\n",
		name, seed, sh.requests, len(s.warm), len(s.meas), sh.distinct, sh.uniqueBytes, s.effectiveCapacity(),
		s.warm[0].t, s.meas[len(s.meas)-1].t, trainings(s.warm, s.meas, s.window), lru)
}
