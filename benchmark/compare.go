package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance rule in BENCHMARK.json's contract is written in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict compares side B with side A on one metric. worse is how much
// worse B's median is than A's, as a share of A's (negative: better).
// Spread wider than the bound on either side leaves the pair unresolved; a
// gain is claimed only when B wins nine tenths of the index-paired runs and
// the medians differ by more than A's own inter-quartile distance.
func verdict(a, b []float64, m metricSpec) (string, float64) {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	if a2 == 0 {
		return unresolved, 0
	}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (b2 - a2) / a2
	if (a3-a1)/a2 > m.Bound || (b2 != 0 && (b3-b1)/b2 > m.Bound) {
		return unresolved, worse
	}
	if worse > m.Bound {
		return regressed, worse
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if worse < 0 && sign*(a2-b2) > a3-a1 && wins*10 >= pairs*9 {
		return improved, worse
	}
	return unchanged, worse
}

func readResults(paths []string) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64) // workload → metric → values
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var o outcome
		if err := json.Unmarshal(data, &o); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if o.Invalid != "" {
			fmt.Fprintf(os.Stderr, "benchmark: %s is marked invalid (%s) and left out\n", p, o.Invalid)
			continue
		}
		if out[o.Workload] == nil {
			out[o.Workload] = make(map[string][]float64)
		}
		for name, v := range o.Metrics {
			out[o.Workload][name] = append(out[o.Workload][name], v.Value)
		}
	}
	return out, nil
}

// compareMain implements `benchmark compare A... -- B...`. It exits 1 when
// a metric regressed and 2 on a usage or read error.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "metric catalogue")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sides [2][]string
	side := 0
	for _, a := range fs.Args() {
		if a == "--" {
			side = 1
			continue
		}
		sides[side] = append(sides[side], a)
	}
	// flag stops at "--" and drops it; the first set then ended there.
	if len(sides[1]) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	bs, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var res [2]map[string]map[string][]float64
	for i := range sides {
		if res[i], err = readResults(sides[i]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	status := 0
	fmt.Printf("%-16s %-22s %34s %34s  %-10s %s\n", "workload", "metric", "A q1 / median / q3", "B q1 / median / q3", "verdict", "change")
	for _, w := range bs.Workloads {
		for _, m := range bs.EndToEnd {
			a, b := res[0][w.Name][m.Name], res[1][w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse := verdict(a, b, m)
			if v == regressed {
				status = 1
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			change := fmt.Sprintf("%.1f%% worse", 100*worse)
			if worse < 0 {
				change = fmt.Sprintf("%.1f%% better", -100*worse)
			}
			fmt.Printf("%-16s %-22s %10.4g /%10.4g /%10.4g %10.4g /%10.4g /%10.4g  %-10s %s (bound %.0f%%)\n",
				w.Name, m.Name, a1, a2, a3, b1, b2, b3, v, change, 100*m.Bound)
		}
	}
	return status
}
