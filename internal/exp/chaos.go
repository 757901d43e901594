package exp

import "infat/internal/chaos"

// ChaosSeedsPerCell is the number of seeds each (scheme, fault) cell runs
// per unit of scale.
const ChaosSeedsPerCell = 8

// ChaosReport runs the (scheme × fault × seed) fault-injection campaign
// over at most workers goroutines (workers <= 0 selects GOMAXPROCS) and
// renders the report, returning it along with the number of
// internal-bucket outcomes (simulator bugs; a healthy campaign returns
// 0). Every cell builds its own runtime, so the report is byte-identical
// at any worker count.
func ChaosReport(scale, workers int) (string, int) {
	// chaos.Run classifies every outcome (panics become Internal
	// outcomes), so the runner's error path is unused.
	outcomes, _ := RunCampaign(NewChaosPlan(scale), workers)
	return chaos.Report(outcomes), chaos.Summarize(outcomes).Internal
}
