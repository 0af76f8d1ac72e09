package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"raven/internal/cache"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/trace"
)

// offlineSpec is the offline-replay workload: raven-sim's default
// Raven configuration replayed in process through cache.Cache.Handle.
type offlineSpec struct {
	ops      []op
	warm     int // the first 30% of requests
	capacity int64
	window   int64
}

// Offline replay settings, as raven-sim defaults them: capacity 2% of
// unique bytes (at least 64), training window = trace duration / 8
// (projected from the warm-up, see newOfflineSpec), 30% warm-up, policy
// seed 42, one worker, fast path and SLO clock off.
const (
	offlineCacheFrac  = 0.02
	offlineWarmFrac   = 0.3
	offlinePolicySeed = 42
)

// newOfflineSpec joins the warm-up and the measured requests. The
// window is raven-sim's trace duration / 8 as the warm-up, 30% of the
// trace, projects it, so that the trainings of the set-up do not depend
// on the measured requests.
func newOfflineSpec(warm, meas []op) *offlineSpec {
	ops := append(append([]op(nil), warm...), meas...)
	sh := shapeOf(ops)
	capacity := int64(float64(sh.uniqueBytes) * offlineCacheFrac)
	if capacity < 64 {
		capacity = 64
	}
	window := int64(float64(warm[len(warm)-1].t-warm[0].t) / offlineWarmFrac / 8)
	if window < 1 {
		window = 1
	}
	return &offlineSpec{ops: ops, warm: len(warm), capacity: capacity, window: window}
}

func (s *offlineSpec) newCache(ro *obs.RavenObs, wrap func(cache.Policy) cache.Policy) (*cache.Cache, error) {
	factory, err := policy.Lookup("raven")
	if err != nil {
		return nil, err
	}
	p, err := factory(policy.Options{
		Capacity:        s.capacity,
		TrainWindow:     s.window,
		Seed:            offlinePolicySeed,
		Workers:         1,
		CheckpointEvery: 1,
		Obs:             ro,
	})
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		p = wrap(p)
	}
	return cache.New(s.capacity, p), nil
}

func request(o op) trace.Request {
	return trace.Request{Time: o.t, Key: trace.Key(o.key), Size: o.size, Next: trace.NoNext}
}

// offlineRun is the outcome of one offline replay.
type offlineRun struct {
	setupS   []float64
	meas     phase
	tm       *timing
	stats    cache.Stats // engine statistics over the measured phase
	ro       *obs.RavenObs
	roWarm   [2]int64 // SLO overruns, fallback evictions at the end of warm-up
	cpuNs    int64    // of the benchmark process over the measured phase
	failures []string
}

// runOffline replays the warm-up reps times on fresh caches (the timed
// set-up) and the measured phase once, on the last cache, timing every
// Handle call. With log non-nil the policy is wrapped in the timing
// decorator, which records its spans there.
func runOffline(s *offlineSpec, reps int, log *spanLog) (*offlineRun, error) {
	run := &offlineRun{}
	var c *cache.Cache
	for rep := 0; rep < reps; rep++ {
		// Drop the previous repetition's cache first, so that every timed
		// set-up starts from the same heap.
		c = nil
		runtime.GC()
		t0 := time.Now()
		ro := &obs.RavenObs{}
		var wrap func(cache.Policy) cache.Policy
		if log != nil {
			log.base = t0
			wrap = func(p cache.Policy) cache.Policy { return newTracedPolicy(p, ro, log) }
		}
		var err error
		if c, err = s.newCache(ro, wrap); err != nil {
			return nil, err
		}
		tm := newTiming(len(s.ops))
		tm.base = t0
		for i, o := range s.ops[:s.warm] {
			tm.send[i] = tm.now()
			c.Handle(request(o))
			tm.recv[i] = tm.now()
		}
		run.setupS = append(run.setupS, time.Since(t0).Seconds())
		run.ro, run.tm = ro, tm
	}
	run.roWarm = [2]int64{run.ro.SLOOverruns.Load(), run.ro.FallbackEvictions.Load()}
	c.ResetStats()
	meas := s.ops[s.warm:]
	pos := make([]bool, len(meas))
	tm := run.tm
	var ru0, ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, err
	}
	start := time.Now()
	for i, o := range meas {
		tm.send[s.warm+i] = tm.now()
		pos[i] = c.Handle(request(o))
		tm.recv[s.warm+i] = tm.now()
	}
	run.meas = phase{ops: meas, pos: pos, wallNs: int64(time.Since(start))}
	run.stats = c.StatsSnapshot()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, err
	}
	run.cpuNs = cpuNs(&ru1) - cpuNs(&ru0)
	s.check(run)
	return run, nil
}

func (r *offlineRun) fail(format string, a ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, a...))
}

// lruMargin is how far below the benchmark's own LRU Raven's OHR may
// fall before a run is declared incorrect.
const lruMargin = 0.02

func (s *offlineSpec) check(run *offlineRun) {
	c := countGets(run.meas)
	sh := shapeOf(s.ops)
	if c.hits > int64(sh.requests-sh.distinct) {
		run.fail("hits %d exceed requests %d minus distinct keys %d", c.hits, sh.requests, sh.distinct)
	}
	lruOHR, _ := lruRatios(s.ops, s.capacity, s.warm)
	if ohr := float64(c.hits) / float64(c.gets); ohr < lruOHR-lruMargin {
		run.fail("OHR %.4f below LRU %.4f minus margin %.2f", ohr, lruOHR, lruMargin)
	}
	st := run.stats
	if st.Requests != c.gets || st.Hits != c.hits || st.ReqBytes != c.reqBytes || st.HitBytes != c.hitBytes {
		run.fail("engine stats %d/%d/%d/%d disagree with replay %d/%d/%d/%d",
			st.Requests, st.Hits, st.ReqBytes, st.HitBytes, c.gets, c.hits, c.reqBytes, c.hitBytes)
	}
	if st.Hits+st.Admissions+st.Rejections != st.Requests {
		run.fail("hits+admissions+rejections %d+%d+%d != requests %d", st.Hits, st.Admissions, st.Rejections, st.Requests)
	}
}
