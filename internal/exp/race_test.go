//go:build race

package exp

// The footprint-path check at effective scales 8 and 16 takes about 25 s
// without the race detector, and its loop is serial, so the detector has
// nothing to find in it.
func init() { raceEnabled = true }
