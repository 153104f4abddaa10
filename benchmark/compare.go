package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so
// the figure agrees with the one the PR driver computes. Fewer than
// two samples have no spread.
func quartileSpread(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	x := append([]float64(nil), samples...)
	sort.Float64s(x)
	q := func(i int) float64 {
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return x[j-1] + (x[j]-x[j-1])*(pos-float64(j))
	}
	med := median(x)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict classifies one workload × metric pair of a (baseline) and b.
// worse is how far b is on the wrong side of a, in the metric's unit;
// allowed is the bound recorded in the baseline.
func verdict(d metricDef, a, b value) (status string, rel, allowed float64) {
	diff := b.Value - a.Value
	if a.Value != 0 {
		rel = diff / math.Abs(a.Value)
	}
	worse := diff
	if d.Better == "higher" {
		worse = -diff
	}
	allowed = math.Max(d.Bound*math.Abs(a.Value), d.Abs)
	spread := math.Max(quartileSpread(a.Samples), quartileSpread(b.Samples)) * math.Abs(a.Value)
	switch {
	case worse > allowed:
		return "REGRESSION", rel, allowed
	case spread > allowed:
		// The run-to-run spread is wider than the bound: the pair
		// cannot be told apart, which is not the same as unchanged.
		return "unresolved", rel, allowed
	}
	return "ok", rel, allowed
}

// compareFiles prints, per workload × end-to-end metric, both values,
// the relative difference and the recorded bound, and fails when any
// pair exceeds its bound.
func compareFiles(pathA, pathB string) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-22s %16s %16s %9s %9s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	var regressions, unresolved, missing int
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil && wb == nil {
			continue
		}
		if wa == nil || wb == nil {
			fmt.Printf("%-12s present in only one file\n", w.name)
			missing++
			continue
		}
		for _, d := range a.Bounds {
			va, oka := wa.EndToEnd[d.Name]
			vb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				fmt.Printf("%-12s %-22s present in only one file\n", w.name, d.Name)
				missing++
				continue
			}
			status, rel, allowed := verdict(d, va, vb)
			bound := fmt.Sprintf("%.1f%%", 100*d.Bound)
			if allowed > d.Bound*math.Abs(va.Value) || d.Bound == 0 {
				bound = fmt.Sprintf("%.3g", allowed)
			}
			fmt.Printf("%-12s %-22s %16.4f %16.4f %+8.2f%% %9s  %s\n", w.name, d.Name, va.Value, vb.Value, 100*rel, bound, status)
			switch status {
			case "REGRESSION":
				regressions++
			case "unresolved":
				unresolved++
			}
		}
	}
	fmt.Printf("%d regressions, %d unresolved (spread wider than the bound), %d missing\n", regressions, unresolved, missing)
	if regressions > 0 || missing > 0 {
		return fmt.Errorf("%s is worse than %s beyond the recorded bounds", pathB, pathA)
	}
	return nil
}
