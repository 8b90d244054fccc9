package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func sorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return quantile(sorted(vs), 0.5)
}

// quantile is the linearly interpolated q-quantile of sorted values.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles follows Python's statistics.quantiles(values, n=4) (its
// default exclusive method), so spreads read as the acceptance check
// computes them.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sorted(vs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// worseBy is how much worse b reads than a, as a share of a (negative
// when better).
func worseBy(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func byWorkload(results []*result) map[string][]*result {
	out := map[string][]*result{}
	for _, r := range results {
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started < rs[j].Started })
	}
	return out
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// repeatability prints, per (workload, end-to-end metric), the median,
// quartiles, IQR and range as shares of the median, and flags a metric
// whose IQR exceeds its bound: the cure is a longer run, not a wider
// bound. It returns the number of flagged metrics.
func repeatability(w io.Writer, results []*result, metrics []metricSpec) int {
	flagged := 0
	groups := byWorkload(results)
	fmt.Fprintf(w, "%-13s %-16s %4s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "runs", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, wl := range workloadNames {
		rs := groups[wl]
		if len(rs) == 0 {
			continue
		}
		for _, m := range metrics {
			vs := values(rs, m.Name)
			if len(vs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vs)
			s := sorted(vs)
			iqr, rng := 0.0, 0.0
			if med != 0 {
				iqr, rng = (q3-q1)/math.Abs(med), (s[len(s)-1]-s[0])/math.Abs(med)
			}
			flag := ""
			if m.Name != "setup_s" && iqr > m.Bound {
				flag = "  SPREAD > BOUND"
				flagged++
			}
			fmt.Fprintf(w, "%-13s %-16s %4d %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f%s\n", wl, m.Name, len(vs), med, q1, q3, iqr, rng, m.Bound, flag)
		}
	}
	return flagged
}

// loadResults reads every untraced result file in dir.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" {
			continue // trace files and anything else that is not a result
		}
		if !r.Trace {
			out = append(out, &r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced result files in %s", dir)
	}
	return out, nil
}

// compare applies the paired-runs rule to the results of a parent and a
// change: per (workload, end-to-end metric) each side's median and
// quartiles, how many pairs the change wins, and a verdict:
//
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - unresolved: a side's IQR is wider than the bound, unless every
//     change run beats every parent run;
//   - improved: the change wins at least 9/10 of the pairs and the
//     medians differ by more than the parent's IQR;
//   - unchanged: otherwise.
//
// Runs pair up in the order they were started. It returns the number of
// worse verdicts.
func compare(w io.Writer, parent, change []*result, metrics []metricSpec) int {
	worse := 0
	pg, cg := byWorkload(parent), byWorkload(change)
	fmt.Fprintf(w, "%-13s %-16s %12s %12s %12s %12s %12s %12s %7s  %s\n",
		"workload", "metric", "parent_q1", "parent_med", "parent_q3", "change_q1", "change_med", "change_q3", "wins", "verdict")
	for _, wl := range workloadNames {
		if len(pg[wl]) == 0 || len(cg[wl]) == 0 {
			continue
		}
		for _, m := range metrics {
			pv, cv := values(pg[wl], m.Name), values(cg[wl], m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pairs := min(len(pv), len(cv))
			wins := 0
			for i := 0; i < pairs; i++ {
				if worseBy(m, pv[i], cv[i]) < 0 {
					wins++
				}
			}
			p1, pm, p3 := quartiles(pv)
			c1, cm, c3 := quartiles(cv)
			allBetter := true
			for _, p := range pv {
				for _, c := range cv {
					if worseBy(m, p, c) >= 0 {
						allBetter = false
					}
				}
			}
			spread := 0.0
			if pm != 0 && cm != 0 {
				spread = max((p3-p1)/math.Abs(pm), (c3-c1)/math.Abs(cm))
			}
			verdict := "unchanged"
			switch {
			case worseBy(m, pm, cm) > m.Bound:
				verdict = "worse"
				worse++
			case spread > m.Bound && !allBetter:
				verdict = "unresolved"
			case wins*10 >= pairs*9 && worseBy(m, pm, cm) < 0 && math.Abs(cm-pm) > p3-p1:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-13s %-16s %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f %3d/%-3d  %s\n",
				wl, m.Name, p1, pm, p3, c1, cm, c3, wins, pairs, verdict)
		}
	}
	return worse
}
