package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
)

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method)
// computes them; for the median it is statistics.median.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], median(s), q[2]
}

// benchBounds reads the end-to-end bounds from the BENCHMARK.json at
// path, if there is one.
func benchBounds(path string) map[string]float64 {
	out := map[string]float64{}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &b) == nil {
		for _, m := range b.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

// steady runs each workload many times untraced, each run a fresh
// process with its own seed, and prints per end-to-end metric the median, quartiles and spread
// (Q3 − Q1 as a share of the median) that BENCHMARK.json's bounds are
// set from.
func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	var (
		runs    = fs.Int("runs", 10, "runs per workload, seeds firstSeed..firstSeed+runs-1")
		first   = fs.Int64("first-seed", 1, "seed of the first run")
		seconds = fs.Int("seconds", 15, "--seconds of each run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	bounds := benchBounds("BENCHMARK.json")
	status := 0
	for _, w := range workloads {
		values := map[string][]float64{}
		units := map[string]string{}
		var failShares []float64
		for i := 0; i < *runs; i++ {
			seed := *first + int64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %v\n", w, seed, err)
				status = 1
				continue
			}
			var res result
			if err := json.Unmarshal(lastLine(out), &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: bad or incorrect result (%v)\n", w, seed, err)
				status = 1
				continue
			}
			failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %s\n", w, seed, lastLine(out))
		}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		slices.Sort(names)
		fmt.Printf("%s (%d runs, failed shares %v)\n", w, len(failShares), slices.Compact(failShares))
		fmt.Printf("  %-30s %14s %14s %14s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound/3")
		for _, k := range names {
			v := values[k]
			if len(v) < 2 {
				continue
			}
			q1, med, q3 := quartiles(v)
			spread := 0.0
			if med > 0 {
				spread = (q3 - q1) / med
			}
			b, flag := "", ""
			if bound, ok := bounds[k]; ok {
				b = fmt.Sprintf("%.4f", bound/3)
				if spread > bound/3 {
					flag = "  WIDE"
				}
			}
			fmt.Printf("  %-30s %14.6g %14.6g %14.6g %8.4f %8s%s %s\n", k, q1, med, q3, spread, b, flag, units[k])
		}
	}
	return status
}

func lastLine(out []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = slices.Clone(sc.Bytes())
		}
	}
	return last
}
