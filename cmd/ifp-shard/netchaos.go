package main

import (
	"fmt"

	"infat/internal/netchaos"
)

// runNetchaos runs the network-fault campaign over faults × seeds ×
// {batch, chaos} (nil faults or seeds: the full grid) against an
// in-process fleet fronted by fault proxies, and reports the verdict
// under name. The gates (zero lost cells, zero corrupt-accepted cells,
// byte-identical reports, sabotage observed, and the control arm's
// healthy-fleet contracts) are enforced inside RunCampaign; this is the
// CI entry point of both -selftest and -netchaos.
func runNetchaos(name string, faults []netchaos.Fault, seeds []uint64) error {
	res, err := netchaos.RunCampaign(netchaos.CampaignConfig{
		FaultSet: faults,
		Seeds:    seeds,
		Logf:     func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if res != nil {
		fmt.Printf("ifp-shard: %s: %v\n", name, res.Summarize())
	}
	return err
}
