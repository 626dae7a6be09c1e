package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runSet is the values of one -out file: workload -> metric -> one
// value per run.
type runSet map[string]map[string][]float64

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if rec.Result == nil {
			return nil, fmt.Errorf("%s line %d: no result", path, n)
		}
		if !rec.Result.Correct || rec.Result.Failed > 0 {
			return nil, fmt.Errorf("%s line %d: %s seed %d was not correct (%d of %d failed); its numbers compare nothing",
				path, n, rec.Workload, rec.Seed, rec.Result.Failed, rec.Result.Attempted)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, mv := range rec.Result.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], mv.Value)
		}
	}
	return set, sc.Err()
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) returns (its default, exclusive method),
// which is what the acceptance check of the benchmark is defined with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		d := i*(n+1) - j*4
		if j < 1 {
			j, d = 1, 0
		}
		if j > n-1 {
			j, d = n-1, 4
		}
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// verdict says how b's median stands against a's for a metric whose
// better direction and bound are given: worse or better only beyond the
// bound, same within it.
func verdict(a, b float64, better string, bound float64) (change float64, word string) {
	change = ratio(b-a, a)
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case worse > bound:
		return change, "worse"
	case worse < -bound:
		return change, "better"
	}
	return change, "same"
}

// compareFiles prints, per workload and metric, both medians, their
// relative change and the verdict by the metric's bound, with each
// side's run-to-run spread beside it; a spread wider than the bound
// marks the pair unresolved. It fails when any end-to-end metric is
// worse.
func compareFiles(w io.Writer, mf *manifest, pathA, pathB string) error {
	a, err := readRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return err
	}
	worse := 0
	for _, wl := range mf.Workloads {
		ma, mb := a[wl.Name], b[wl.Name]
		if ma == nil || mb == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		fmt.Fprintf(w, "  %-34s %-6s %14s %8s %3s %14s %8s %3s %9s  %s\n",
			"metric", "unit", "A median", "spread", "n", "B median", "spread", "n", "change", "verdict")
		for _, def := range append(append([]metricDef(nil), mf.EndToEnd...), mf.PerLayer...) {
			va, vb := ma[def.Name], mb[def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			change, word := verdict(medA, medB, def.Better, def.Bound)
			if def.Bound == 0 {
				word = "-"
			} else {
				if word == "same" && (sa > def.Bound || sb > def.Bound) {
					word = "unresolved"
				}
				if word == "worse" {
					worse++
				}
				word = fmt.Sprintf("%s (bound %.0f%%, %s is better)", word, 100*def.Bound, def.Better)
			}
			fmt.Fprintf(w, "  %-34s %-6s %14.6g %7.1f%% %3d %14.6g %7.1f%% %3d %+8.1f%%  %s\n",
				def.Name, def.Unit, medA, 100*sa, len(va), medB, 100*sb, len(vb), 100*change, word)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse in %s than in %s", worse, pathB, pathA)
	}
	return nil
}
