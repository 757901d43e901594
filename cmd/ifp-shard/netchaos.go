package main

import (
	"fmt"

	"infat/internal/netchaos"
)

// runNetchaos executes the full network-fault campaign grid — every
// injectable fault × seed × {batch, chaos} — against an in-process
// fleet fronted by fault proxies, and reports the verdict. The gates
// (zero lost cells, zero corrupt-accepted cells, byte-identical
// reports, sabotage observed) are enforced inside RunCampaign; this is
// the CI entry point.
func runNetchaos() error {
	res, err := netchaos.RunCampaign(netchaos.CampaignConfig{
		Logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if res != nil {
		s := res.Summarize()
		fmt.Printf("ifp-shard: netchaos: %d runs (%d failed), %d cells, %d faults injected, "+
			"%d recovered, %d failed-over, %d stolen, %d hedged, %d shed, %d corrupt lines rejected, "+
			"%d duplicates suppressed, %d lost\n",
			s.Runs, s.Failed, s.Cells, s.Injected, s.Recovered, s.FailedOver, s.Stolen, s.Hedged,
			s.Shed, s.CorruptLines, s.DupSuppressed, s.Lost)
	}
	return err
}
