//go:build race

package minic_test

// The race detector makes sync.Pool drop items at random, so allocation
// budgets that rely on the front end's pooled buffers do not hold under it.
func init() { raceEnabled = true }
