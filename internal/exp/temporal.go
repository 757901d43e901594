package exp

// Temporal-axis evaluation: the generation-tagging mode (rt.IFPTemporal)
// compared against the spatial-only configurations over the same workload
// grid, plus the CWE-415/416 detection-rate comparison. Everything here is
// additive — the spatial campaigns and their reports never consult this
// file, which is what keeps their output byte-identical to the
// pre-temporal harness.

import (
	"fmt"

	"infat/internal/juliet"
	"infat/internal/rt"
	"infat/internal/stats"
	"infat/internal/workloads"
)

// TemporalSection renders the temporal-overhead table from results whose
// Temporal slot is populated (a plan built WithTemporal): per-workload
// cycle overhead of the spatial schemes and of ifp-temporal vs baseline,
// the generation-check volume, and the geo-mean comparison line that
// prices the temporal upgrade against spatial-only protection.
func TemporalSection(results []Result) string {
	var t stats.Table
	t.Add("Benchmark", "Subheap", "Wrapped", "IFP-Temporal", "GenChecks", "GenCheckFails")
	var sr, wr, tr []float64
	for _, r := range results {
		base := r.Baseline.Counters.Cycles
		rs := stats.Ratio(r.Subheap.Counters.Cycles, base)
		rw := stats.Ratio(r.Wrapped.Counters.Cycles, base)
		rtp := stats.Ratio(r.Temporal.Counters.Cycles, base)
		sr, wr, tr = append(sr, rs), append(wr, rw), append(tr, rtp)
		t.Add(r.Name, pctCell(rs), pctCell(rw), pctCell(rtp),
			stats.SI(r.Temporal.Counters.GenChecks),
			fmt.Sprint(r.Temporal.Counters.GenCheckFails))
	}
	return "Temporal axis: generation tagging (ifp-temporal) vs spatial-only (cycles vs baseline)\n" +
		t.String() +
		fmt.Sprintf("geo-mean overhead: subheap %s, wrapped %s, ifp-temporal %s\n",
			stats.GeomeanOverhead(sr), stats.GeomeanOverhead(wr),
			stats.GeomeanOverhead(tr))
}

// TemporalDetection runs the CWE-415/416 Juliet families under a spatial
// mode and under rt.IFPTemporal and renders the detection-rate
// comparison: the spatial design documents most of these as out of scope
// (metadata invalidation only), the generation comparison must catch them
// all.
func TemporalDetection(workers int) string {
	cases := juliet.GenerateCWE415416()
	var t stats.Table
	t.Add("Mode", "Detected", "Missed", "FalsePos", "Errors")
	for _, mode := range []rt.Mode{rt.Hybrid, rt.IFPTemporal} {
		s := juliet.Run(cases, mode, workers)
		t.Add(mode.String(),
			fmt.Sprintf("%d/%d", s.Detected, s.BadCases),
			fmt.Sprint(s.Missed), fmt.Sprint(s.FalsePositives), fmt.Sprint(s.Errors))
	}
	return "CWE-415/416 detection (spatial-only vs generation tagging)\n" + t.String()
}

// TemporalReport runs the temporal campaign: the full workload grid with
// the ifp-temporal configuration appended (a WithTemporal plan, so the
// spatial cells are the exact cells a spatial plan enumerates), fanned
// over at most workers goroutines, plus the CWE-415/416 detection table.
// Output is byte-identical at any worker count.
func TemporalReport(scale, workers int) (string, error) {
	p := NewPlan(workloads.All, scale).WithTemporal(true)
	cells, err := RunCampaign(p, workers)
	if err != nil {
		return "", err
	}
	results, _, err := p.Results(cells)
	if err != nil {
		return "", err
	}
	return TemporalSection(results) + "\n" + TemporalDetection(workers), nil
}
