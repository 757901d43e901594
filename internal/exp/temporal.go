package exp

// Temporal-axis evaluation: the generation-tagging mode (rt.IFPTemporal)
// compared against the spatial-only configurations over the same workload
// grid, plus the CWE-415/416 detection-rate comparison. Everything here is
// additive — the spatial campaigns and their reports never consult this
// file, which is what keeps their output byte-identical to the
// pre-temporal harness.

import (
	"fmt"
	"slices"

	"infat/internal/juliet"
	"infat/internal/rt"
	"infat/internal/stats"
	"infat/internal/workloads"
)

var cfgTemporal = ModeConfig(rt.IFPTemporal, false)

// temporalSection renders the temporal-overhead table of a TemporalPlan:
// per-workload cycle overhead of the spatial schemes and of
// ifp-temporal vs baseline, the generation-check volume, and the geo-mean
// comparison line that prices the temporal upgrade against spatial-only
// protection.
func temporalSection(p Plan, cells []CellResult) string {
	return versusStatic(p, cells, "Temporal axis: generation tagging (ifp-temporal) vs spatial-only (cycles vs baseline)",
		cfgTemporal, []string{"IFP-Temporal", "GenChecks", "GenCheckFails"}, func(m ModeResult) []string {
			return []string{stats.SI(m.Counters.GenChecks), fmt.Sprint(m.Counters.GenCheckFails)}
		})
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

// TemporalPlan enumerates the temporal campaign over ws at scale (raised
// to at least 1): each workload in the five report configurations, then
// ifp-temporal, so its spatial cells are the report campaign's, rendered
// as the temporal section alone.
func TemporalPlan(ws []workloads.Workload, scale int) Plan {
	return sectionPlan(ws, scale, append(slices.Clip(reportConfigs), cfgTemporal), temporalSection)
}
