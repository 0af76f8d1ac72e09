package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/obs"
)

// Layers a policy call is attributed to. Every call the cache engine
// makes into the policy is one span; spans of one request share its
// index, which counts OnHit/OnMiss calls (the engine makes exactly one
// per GET or SET).
const (
	spanObserve = iota // OnHit/OnMiss that did not train
	spanAdmit          // the admission chain (Admit)
	spanVictim         // eviction decisions (Victim)
	spanBook           // OnAdmit, OnEvict, NextPrefetch
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"core.observe", "admission", "core.victim", "core.bookkeeping"}

// trainSpan is an OnHit/OnMiss call during which Raven trained.
type trainSpan struct {
	req        int
	start, dur int64
	rec        core.TrainRecord
}

// victimCall classifies one eviction decision.
type victimCall struct {
	req     int
	dur     int64
	learned bool // decided by a model: no SLO overrun, no fallback
}

// spanLog keeps every span of a traced run in memory: per request, the
// earliest start and latest end of its policy spans and the summed
// duration per layer (nanoseconds since base); training spans and
// eviction decisions individually. It is written out once, after the
// run (writeSpans).
type spanLog struct {
	base    time.Time
	first   []int64
	last    []int64
	dur     [nSpanKinds][]uint32
	trains  []trainSpan
	victims []victimCall
	admits  []int32 // request index of every admission-chain call
}

func newSpanLog(base time.Time, requests int) *spanLog {
	l := &spanLog{base: base, first: make([]int64, requests), last: make([]int64, requests)}
	for k := range l.dur {
		l.dur[k] = make([]uint32, requests)
	}
	for i := range l.first {
		l.first[i] = -1
	}
	return l
}

// tracedPolicy is the benchmark's timing decorator around one shard's
// policy. It forwards the optional engine extensions (Admitter,
// Prefetcher, Flusher, Unwrap) exactly as the program's own simulator
// decorator does, so wrapping changes no decision.
type tracedPolicy struct {
	cache.Policy
	raven *core.Raven // nil when the policy is not Raven
	ro    *obs.RavenObs
	log   *spanLog
	req   int // index of the request being served; -1 before the first
}

func newTracedPolicy(p cache.Policy, ro *obs.RavenObs, log *spanLog) *tracedPolicy {
	r, _ := cache.Unwrap(p).(*core.Raven)
	return &tracedPolicy{Policy: p, raven: r, ro: ro, log: log, req: -1}
}

// now reads the wall clock for a span boundary.
//
//lint:allow hot-path-purity the benchmark's timing decorator measures the eviction path; it is never part of the program
func (t *tracedPolicy) now() int64 { return int64(time.Since(t.log.base)) }

// span records [start, end) as a span of kind k for the current request.
func (t *tracedPolicy) span(k int, start, end int64) {
	i := t.req
	if i < 0 || i >= len(t.log.first) {
		return
	}
	if t.log.first[i] < 0 {
		t.log.first[i] = start
	}
	t.log.last[i] = end
	t.log.dur[k][i] += uint32(end - start)
}

func (t *tracedPolicy) observe(req cache.Request, hit bool) {
	t.req++
	n := 0
	if t.raven != nil {
		n = len(t.raven.TrainStats)
	}
	start := t.now()
	if hit {
		t.Policy.OnHit(req)
	} else {
		t.Policy.OnMiss(req)
	}
	end := t.now()
	if t.raven != nil && len(t.raven.TrainStats) > n {
		rec := t.raven.TrainStats[len(t.raven.TrainStats)-1]
		t.log.trains = append(t.log.trains, trainSpan{req: t.req, start: start, dur: end - start, rec: rec})
		if i := t.req; i >= 0 && i < len(t.log.first) {
			if t.log.first[i] < 0 {
				t.log.first[i] = start
			}
			t.log.last[i] = end
		}
		return
	}
	t.span(spanObserve, start, end)
}

func (t *tracedPolicy) OnHit(req cache.Request)  { t.observe(req, true) }
func (t *tracedPolicy) OnMiss(req cache.Request) { t.observe(req, false) }

func (t *tracedPolicy) OnAdmit(req cache.Request) {
	start := t.now()
	t.Policy.OnAdmit(req)
	t.span(spanBook, start, t.now())
}

func (t *tracedPolicy) OnEvict(key cache.Key) {
	start := t.now()
	t.Policy.OnEvict(key)
	t.span(spanBook, start, t.now())
}

// Victim times the inner decision and classifies it as learned or not.
//
//lint:allow determinism-taint the clock read only measures; the decision is the inner policy's
func (t *tracedPolicy) Victim() (cache.Key, bool) {
	learned := false
	var overruns, fallbacks int64
	if t.raven != nil {
		learned = t.raven.Trained() && t.raven.Health() != core.Fallback
		overruns, fallbacks = t.ro.SLOOverruns.Load(), t.ro.FallbackEvictions.Load()
	}
	start := t.now()
	k, ok := t.Policy.Victim()
	end := t.now()
	if t.raven != nil {
		learned = learned && t.ro.SLOOverruns.Load() == overruns && t.ro.FallbackEvictions.Load() == fallbacks
	}
	t.span(spanVictim, start, end)
	t.log.victims = append(t.log.victims, victimCall{req: t.req, dur: end - start, learned: learned})
	return k, ok
}

// Admit times the admission chain. Policies without one answer through
// cache.PolicyAdmit's accept-all default and are not counted.
func (t *tracedPolicy) Admit(req cache.Request) cache.Decision {
	switch t.Policy.(type) {
	case cache.Admitter, cache.LegacyAdmitter:
	default:
		return cache.Accepted
	}
	start := t.now()
	d := cache.PolicyAdmit(t.Policy, req)
	t.span(spanAdmit, start, t.now())
	t.log.admits = append(t.log.admits, int32(t.req))
	return d
}

func (t *tracedPolicy) NextPrefetch(now int64) (cache.Request, bool) {
	pf, ok := t.Policy.(cache.Prefetcher)
	if !ok {
		return cache.Request{}, false
	}
	start := t.now()
	r, ok := pf.NextPrefetch(now)
	t.span(spanBook, start, t.now())
	return r, ok
}

func (t *tracedPolicy) Flush() {
	if f, ok := t.Policy.(cache.Flusher); ok {
		f.Flush()
	}
}

func (t *tracedPolicy) Unwrap() cache.Policy { return t.Policy }

// spanTolerance is the share of the client-observed total that policy
// spans may fall outside their request's own client span before the
// traced run is declared inconsistent: every policy call of a request
// happens after the request is sent and before its reply is read.
const spanTolerance = 0.01

// layerReport is the traced run's per-layer accounting over the
// measured requests [from, to) of a span log whose client spans are tm.
type layerReport struct {
	requests   int
	wallNs     int64 // measured phase, client clock
	clientNs   int64 // Σ client-observed per-request latency
	rootSelfNs int64 // Σ per request: latency − its policy spans
	layerNs    [nSpanKinds]int64
	admitCalls int
	trainNs    int64
	outsideNs  int64 // policy span time outside its request's client span
	trains     []trainSpan
	victims    []victimCall
}

func (l *spanLog) report(tm *timing, from, to int, wallNs int64) layerReport {
	r := layerReport{requests: to - from, wallNs: wallNs}
	trainAt := make(map[int]int64, len(l.trains))
	for _, s := range l.trains {
		if s.req >= from && s.req < to {
			trainAt[s.req] += s.dur
			r.trainNs += s.dur
			r.trains = append(r.trains, s)
		}
	}
	for _, v := range l.victims {
		if v.req >= from && v.req < to {
			r.victims = append(r.victims, v)
		}
	}
	for _, a := range l.admits {
		if int(a) >= from && int(a) < to {
			r.admitCalls++
		}
	}
	for i := from; i < to; i++ {
		lat := tm.recv[i] - tm.send[i]
		r.clientNs += lat
		child := trainAt[i]
		for k := range l.dur {
			d := int64(l.dur[k][i])
			child += d
			r.layerNs[k] += d
		}
		r.rootSelfNs += lat - child
		if l.first[i] >= 0 {
			if l.first[i] < tm.send[i] {
				r.outsideNs += tm.send[i] - l.first[i]
			}
			if l.last[i] > tm.recv[i] {
				r.outsideNs += l.last[i] - tm.recv[i]
			}
		}
	}
	return r
}

// policyNs is the time spent inside policy calls.
func (r layerReport) policyNs() int64 {
	s := r.trainNs
	for _, d := range r.layerNs {
		s += d
	}
	return s
}

// check reconciles the spans with the client-observed total. Self
// time is defined as latency minus policy spans, so Σ self + Σ spans
// equals Σ latency by construction; the self times are true only if
// every policy span lies inside its own request's client span. The
// share of span time that falls outside it (a span booked to the wrong
// request, or a clock mismatch) is the discrepancy.
func (r layerReport) check() error {
	if share := float64(r.outsideNs) / float64(r.clientNs); share > spanTolerance {
		return fmt.Errorf("%.4f of span time lies outside its request's client span (tolerance %.2f)", share, spanTolerance)
	}
	return nil
}

// print writes the self time per layer to w.
func (r layerReport) print(w *os.File) {
	fmt.Fprintf(w, "traced: %d requests, wall %.3fs, client-observed Σlatency %.3fs, span time outside parent %.2e of it\n",
		r.requests, float64(r.wallNs)/1e9, float64(r.clientNs)/1e9, float64(r.outsideNs)/float64(r.clientNs))
	fmt.Fprintf(w, "traced: self time per layer (Σ over requests, share of client-observed total):\n")
	row := func(name string, ns int64) {
		fmt.Fprintf(w, "  %-18s %10.4fs  %6.2f%%\n", name, float64(ns)/1e9, 100*float64(ns)/float64(r.clientNs))
	}
	row("client+wire+server", r.rootSelfNs)
	for k, name := range spanNames {
		row(name, r.layerNs[k])
	}
	row("core.train", r.trainNs)
}

// victimPercentiles returns the p50 and p99 decision times in µs.
func victimPercentiles(v []victimCall) (p50, p99 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	d := make([]int64, len(v))
	for i, c := range v {
		d[i] = c.dur
	}
	slices.Sort(d)
	return float64(pct(d, 50)) / 1e3, float64(pct(d, 99)) / 1e3
}

// writeSpans writes the span log and the client spans once, after the
// run, as little-endian binary arrays (see README.md, "Span file").
func writeSpans(path string, l *spanLog, tm *timing, n int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	put := func(v any) {
		if err == nil {
			err = binary.Write(w, binary.LittleEndian, v)
		}
	}
	put(int64(n))
	put(tm.send[:n])
	put(tm.recv[:n])
	put(l.first[:n])
	put(l.last[:n])
	for k := range l.dur {
		put(l.dur[k][:n])
	}
	put(int64(len(l.trains)))
	for _, s := range l.trains {
		put([3]int64{int64(s.req), s.start, s.dur})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
