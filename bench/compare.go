package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// boundSpec is one end-to-end metric of BENCHMARK.json with its bound:
// the share of the parent's median by which it may worsen.
type boundSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]boundSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return spec.EndToEnd, nil
}

// readRecords loads a JSON Lines file of run records, grouped by
// workload in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// Verdicts, from best to worst news for the change.
const (
	unchanged  = "unchanged"
	improved   = "improved"
	unresolved = "unresolved"
	worse      = "worse"
)

// verdictRank orders verdicts for a workload's summary row.
var verdictRank = map[string]int{unchanged: 0, improved: 1, unresolved: 2, worse: 3}

// judgement is one (workload, metric) comparison.
type judgement struct {
	pairs, wins int
	base, chg   [3]float64 // quartiles
	verdict     string
}

// judge applies the acceptance rule to paired runs of the parent (base)
// and the change. A gain needs at least ten pairs, a win in nine tenths
// of them, and a median difference beyond the parent's interquartile
// spread. A regression is a median worse by more than bound. Where the
// parent's own spread exceeds the bound, no "unchanged" can be claimed
// unless every change run beats every parent run.
func judge(base, change []float64, higherBetter bool, bound float64) judgement {
	var j judgement
	j.pairs = min(len(base), len(change))
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	for i := 0; i < j.pairs; i++ {
		if better(change[i], base[i]) {
			j.wins++
		}
	}
	j.base[0], j.base[1], j.base[2] = quartiles(base)
	j.chg[0], j.chg[1], j.chg[2] = quartiles(change)
	bm, cm := j.base[1], j.chg[1]
	iqr := j.base[2] - j.base[0]
	allBetter := len(base) > 0 && len(change) > 0
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	worsening := (cm - bm) / math.Abs(bm)
	if higherBetter {
		worsening = -worsening
	}
	switch {
	case bm == 0:
		j.verdict = unresolved
	case j.pairs >= 10 && 10*j.wins >= 9*j.pairs && better(cm, bm) && math.Abs(cm-bm) > iqr:
		j.verdict = improved
	case iqr/math.Abs(bm) > bound && !allBetter:
		j.verdict = unresolved
	case worsening > bound:
		j.verdict = worse
	default:
		j.verdict = unchanged
	}
	return j
}

// runCompare prints one row per (workload, metric) and one summary row
// per workload for every change file against the base file. It exits 1
// when any metric got worse.
func runCompare(specPath string, files []string, stdout, stderr io.Writer) int {
	if len(files) < 2 {
		fmt.Fprintln(stderr, "bench: -compare needs BASE and at least one CHANGE file")
		return 2
	}
	code, err := compareFiles(specPath, files, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return code
}

func compareFiles(specPath string, files []string, w io.Writer) (int, error) {
	bounds, err := readBounds(specPath)
	if err != nil {
		return 0, err
	}
	base, err := readRecords(files[0])
	if err != nil {
		return 0, err
	}
	code := 0
	for _, path := range files[1:] {
		change, err := readRecords(path)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "%s vs %s\n", files[0], path)
		if compareSets(w, bounds, base, change) {
			code = 1
		}
	}
	return code, nil
}

// compareSets prints the comparison and reports whether anything got
// worse.
func compareSets(w io.Writer, bounds []boundSpec, base, change map[string][]record) bool {
	anyWorse := false
	for _, wl := range allWorkloads {
		b, c := base[wl.name], change[wl.name]
		if len(b) == 0 && len(c) == 0 {
			continue
		}
		row := unchanged
		if len(b) == 0 || len(c) == 0 {
			row = unresolved
		}
		for _, s := range bounds {
			if len(b) == 0 || len(c) == 0 {
				break
			}
			j := judge(values(b, s.Name), values(c, s.Name), s.Better == "higher", s.Bound)
			fmt.Fprintf(w, "  %-20s %-18s base %-12.6g [%.6g, %.6g]  change %-12.6g [%.6g, %.6g]  wins %d/%d  %s\n",
				wl.name, s.Name, j.base[1], j.base[0], j.base[2], j.chg[1], j.chg[0], j.chg[2], j.wins, j.pairs, j.verdict)
			if verdictRank[j.verdict] > verdictRank[row] {
				row = j.verdict
			}
		}
		fmt.Fprintf(w, "%-22s %s (%d base runs, %d change runs)\n", wl.name, row, len(b), len(c))
		anyWorse = anyWorse || row == worse
	}
	return anyWorse
}

func values(rs []record, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.EndToEnd[metric].Value
	}
	return out
}
