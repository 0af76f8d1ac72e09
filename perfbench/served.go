package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"raven/internal/cache"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/server"
)

// serverProc is one ravencached process started by the benchmark.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once the stdout reader has hit EOF
}

// startServer launches bin with args (which must include -addr
// 127.0.0.1:0) and returns once the server has printed its address.
func startServer(bin string, args []string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// A server outlives no benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addrc <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, out)
		if !sent {
			close(addrc)
		}
	}()
	select {
	case a, ok := <-addrc:
		if ok {
			p.addr = a
			return p, nil
		}
	case <-time.After(30 * time.Second):
	}
	_, _ = p.stop()
	return nil, errors.New("ravencached did not report its listening address")
}

// cpuNs returns the user+system CPU time the kernel accounted to a
// process. It leaves out time the hypervisor stole from the virtual
// CPU, which wall-clock figures include.
func cpuNs(ru *syscall.Rusage) int64 { return ru.Utime.Nano() + ru.Stime.Nano() }

// stop sends SIGTERM, waits for the process to exit (killing it after
// 30s), and returns its CPU time over its whole life.
func (p *serverProc) stop() (int64, error) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.drained
	}
	err := p.cmd.Wait()
	var cpu int64
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpu = cpuNs(ru)
	}
	return cpu, err
}

// servedSpec is one workload served by ravencached over one connection.
type servedSpec struct {
	name      string
	binary    bool  // binary protocol (else text)
	depth     int   // pipelining depth (1 = request-response)
	capacity  int64 // -capacity; 0 keeps the shipped default
	admit     string
	lookaside bool  // GET, and SET after every miss
	window    int64 // training window in ticks; 0 for a workload that never trains
	checkLRU  bool  // measured OHR must be at least LRU's minus lruMargin
	allHit    bool  // every measured GET must hit
	warm      []op  // warm-up GETs (part of set-up)
	meas      []op  // measured GETs
	extraArgs []string
}

// shippedCapacity is ravencached's -capacity default.
const shippedCapacity = 64 << 20

func (s *servedSpec) serverArgs() []string {
	args := []string{"-addr", "127.0.0.1:0"}
	if s.capacity > 0 {
		args = append(args, "-capacity", strconv.FormatInt(s.capacity, 10))
	}
	if s.admit != "" {
		args = append(args, "-admit", s.admit)
	}
	return append(args, s.extraArgs...)
}

func (s *servedSpec) effectiveCapacity() int64 {
	if s.capacity > 0 {
		return s.capacity
	}
	return shippedCapacity
}

func (s *servedSpec) all() []op { return append(append([]op(nil), s.warm...), s.meas...) }

// maxOps bounds the operations driving gets sends: a lookaside client
// may follow every GET with a SET.
func (s *servedSpec) maxOps(gets []op) int {
	if s.lookaside {
		return 2 * len(gets)
	}
	return len(gets)
}

// phase is what the client did and saw in one phase of a run.
type phase struct {
	ops    []op   // operations sent, in order (lookaside SETs included)
	pos    []bool // positive reply per op (HIT / STORED)
	wallNs int64
}

// drive sends gets over w: pipelined as given, or lookaside (each miss
// followed by a SET of the same object). tm, when non-nil, records
// per-op send/receive times starting at index off.
func (s *servedSpec) drive(w *wireConn, gets []op, tm *timing, off int) (phase, error) {
	start := time.Now()
	if !s.lookaside {
		pos := make([]bool, len(gets))
		err := w.pipeline(gets, s.depth, pos, tm, off)
		return phase{ops: gets, pos: pos, wallNs: int64(time.Since(start))}, err
	}
	p := phase{ops: make([]op, 0, 2*len(gets)), pos: make([]bool, 0, 2*len(gets))}
	var one [1]bool
	send := func(o op) error {
		i := off + len(p.ops)
		if err := w.pipeline([]op{o}, 1, one[:], tm, i); err != nil {
			return err
		}
		p.ops = append(p.ops, o)
		p.pos = append(p.pos, one[0])
		return nil
	}
	for _, g := range gets {
		if err := send(g); err != nil {
			return p, err
		}
		if !one[0] {
			set := g
			set.set = true
			if err := send(set); err != nil {
				return p, err
			}
		}
	}
	p.wallNs = int64(time.Since(start))
	return p, nil
}

// session is what the client did and saw against one server.
type session struct {
	setupS     float64
	warm, meas phase
	tm         *timing // send/receive times; the measured ops start at index off
	off        int
	delta      map[string]int64 // METRICS over the measured phase
	stats      serverStats      // STATS over the measured phase
	cpuNs      int64            // of the server process, set-up included
	report     layerReport      // traced run only
}

func (e *session) lat() []int64 { return latencies(e.tm, e.off, e.off+len(e.meas.ops)) }

// serve drives s against the server at addr: it waits for PING, runs
// the warm-up and stamps the end of set-up (measured from t0); with
// measure set it then runs the measured phase between two METRICS and
// STATS snapshots taken on a second, control-only connection. With
// traceAll the warm-up is timed too, so that op indices match the
// policy's request indices.
func (s *servedSpec) serve(addr string, t0 time.Time, measure, traceAll bool) (*session, error) {
	if err := ping(addr, time.Now().Add(30*time.Second)); err != nil {
		return nil, err
	}
	w, err := dial(addr, s.binary)
	if err != nil {
		return nil, err
	}
	defer w.c.Close()
	e := &session{}
	var warmTM *timing
	if measure {
		n := s.maxOps(s.meas)
		if traceAll {
			n += s.maxOps(s.warm)
		}
		e.tm = newTiming(n)
		e.tm.base = t0
	}
	if traceAll {
		warmTM = e.tm
	}
	if e.warm, err = s.drive(w, s.warm, warmTM, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	e.setupS = time.Since(t0).Seconds()
	if !measure {
		return e, w.close()
	}
	if traceAll {
		e.off = len(e.warm.ops)
	}
	ctl, err := dial(addr, false)
	if err != nil {
		return nil, err
	}
	defer ctl.c.Close()
	m0, err := ctl.metrics()
	if err != nil {
		return nil, err
	}
	s0, err := ctl.stats()
	if err != nil {
		return nil, err
	}
	if e.meas, err = s.drive(w, s.meas, e.tm, e.off); err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	m1, err := ctl.metrics()
	if err != nil {
		return nil, err
	}
	s1, err := ctl.stats()
	if err != nil {
		return nil, err
	}
	e.delta = make(map[string]int64, len(m1))
	for k, v := range m1 {
		e.delta[k] = v - m0[k]
	}
	e.stats = serverStats{s1.requests - s0.requests, s1.hits - s0.hits, s1.reqBytes - s0.reqBytes, s1.hitBytes - s0.hitBytes}
	return e, ctl.close()
}

func latencies(tm *timing, from, to int) []int64 {
	lat := make([]int64, to-from)
	for i := range lat {
		lat[i] = tm.recv[from+i] - tm.send[from+i]
	}
	return lat
}

// servedRun is the outcome of one served run: the set-up times of its
// launches and the session that was measured.
type servedRun struct {
	setupS   []float64
	e        *session
	failures []string
}

func (r *servedRun) fail(format string, a ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, a...))
}

// runServedProc launches ravencached reps times. Each launch is warmed
// up, and its set-up time runs from process launch to the end of the
// warm-up; the last launch also serves the measured phase.
func runServedProc(s *servedSpec, bin string, reps int) (*servedRun, error) {
	run := &servedRun{}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		p, err := startServer(bin, s.serverArgs())
		if err != nil {
			return nil, err
		}
		last := rep == reps-1
		e, err := s.serve(p.addr, t0, last, false)
		cpu, stopErr := p.stop()
		if err != nil {
			return nil, err
		}
		if stopErr != nil {
			return nil, fmt.Errorf("ravencached exit: %w", stopErr)
		}
		run.setupS = append(run.setupS, e.setupS)
		if last {
			e.cpuNs = cpu
			run.e = e
			s.check(run)
		}
	}
	return run, nil
}

// getCounts tallies the GETs, their hits and bytes, and the SETs of p.
type getCounts struct {
	gets, hits, sets   int64
	reqBytes, hitBytes int64
}

func countGets(p phase) getCounts {
	var c getCounts
	for i, o := range p.ops {
		if o.set {
			c.sets++
			continue
		}
		c.gets++
		c.reqBytes += o.size
		if p.pos[i] {
			c.hits++
			c.hitBytes += o.size
		}
	}
	return c
}

// check compares the measured phase against computations made apart
// from the program: the trace's distinct keys, the benchmark's own LRU,
// and the client's own counts against STATS and METRICS.
func (s *servedSpec) check(run *servedRun) {
	e := run.e
	c := countGets(e.meas)
	wc := countGets(e.warm)
	sh := shapeOf(s.warm, s.meas)
	if hits := c.hits + wc.hits; hits > int64(sh.requests-sh.distinct) {
		run.fail("hits %d exceed requests %d minus distinct keys %d", hits, sh.requests, sh.distinct)
	}
	if s.checkLRU {
		lruOHR, _ := lruRatios(s.all(), s.effectiveCapacity(), len(s.warm))
		if ohr := ratio(c.hits, c.gets); ohr < lruOHR-lruMargin {
			run.fail("OHR %.4f below LRU %.4f minus margin %.2f", ohr, lruOHR, lruMargin)
		}
	}
	if s.allHit && c.hits != c.gets {
		run.fail("%d of %d measured GETs missed", c.gets-c.hits, c.gets)
	}
	st := e.stats
	if st.requests != c.gets || st.hits != c.hits || st.reqBytes != c.reqBytes || st.hitBytes != c.hitBytes {
		run.fail("STATS %+v disagree with client gets=%d hits=%d bytes=%d/%d", st, c.gets, c.hits, c.reqBytes, c.hitBytes)
	}
	d := e.delta
	if d["cache.requests"] != c.gets || d["cache.hits"] != c.hits {
		run.fail("METRICS cache.requests/hits %d/%d, client %d/%d", d["cache.requests"], d["cache.hits"], c.gets, c.hits)
	}
	if !s.lookaside && d["cache.hits"]+d["cache.admissions"]+d["cache.rejections"] != d["cache.requests"] {
		run.fail("METRICS hits+admissions+rejections %d+%d+%d != requests %d",
			d["cache.hits"], d["cache.admissions"], d["cache.rejections"], d["cache.requests"])
	}
	var rejects int64
	for k, v := range d {
		if strings.HasPrefix(k, "cache.admit_rejects.") {
			rejects += v
		}
	}
	if rejects != d["cache.rejections"] {
		run.fail("Σ cache.admit_rejects.* = %d, cache.rejections = %d", rejects, d["cache.rejections"])
	}
	if d["cache.sets"] != c.sets {
		run.fail("METRICS cache.sets %d, client SETs %d", d["cache.sets"], c.sets)
	}
}

// shippedOptions mirrors ravencached's flag defaults (policy raven,
// -window 100000, -seed 42, -score-cache, -inference32,
// -decision-budget 50µs, no checkpoint, no prefetch) plus the
// workload's -admit, for the traced run's in-process server.
func shippedOptions(admit string, ro *obs.RavenObs) policy.Options {
	return policy.Options{
		TrainWindow:     shippedWindow,
		Seed:            42,
		CheckpointEvery: 1,
		Obs:             ro,
		ScoreCache:      true,
		Inference32:     true,
		DecisionBudget:  50 * time.Microsecond,
		Admission:       policy.AdmissionOptions{Mode: admit},
	}.PerNode(0, 1)
}

// runServedInProc serves the same traffic from an in-process
// server.New built with ravencached's defaults. With spanPath set, the
// shard policy is wrapped in the timing decorator and the spans are
// written there; without, the run is the untraced baseline that the
// tracing overhead is measured against.
func runServedInProc(s *servedSpec, spanPath string) (*servedRun, error) {
	factory, err := policy.Lookup("raven")
	if err != nil {
		return nil, err
	}
	ro := &obs.RavenObs{}
	perShard := factory.PerShard(shippedOptions(s.admit, ro), 1)
	t0 := time.Now()
	log := newSpanLog(t0, s.maxOps(s.warm)+s.maxOps(s.meas))
	srv, err := server.New(server.Config{
		Addr:     "127.0.0.1:0",
		Capacity: s.effectiveCapacity(),
		Shards:   1,
		NewPolicy: func(shard int, capacity int64) (cache.Policy, error) {
			p, err := perShard(shard, capacity)
			if err != nil || spanPath == "" {
				return p, err
			}
			return newTracedPolicy(p, ro, log), nil
		},
	})
	if err != nil {
		return nil, err
	}
	ro.Register(srv.Metrics(), "raven")
	e, err := s.serve(srv.Addr(), t0, true, true)
	// Close waits for every connection handler, so the span log is
	// complete and no longer written once it returns.
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if spanPath != "" {
		n := e.off + len(e.meas.ops)
		e.report = log.report(e.tm, e.off, n, e.meas.wallNs)
		if err := writeSpans(spanPath, log, e.tm, n); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	run := &servedRun{setupS: []float64{e.setupS}, e: e}
	s.check(run)
	return run, nil
}
