package shard

import (
	"context"
	"net/http/httptest"
	"testing"

	"infat/internal/server"
)

// relayCampaigns are the campaigns a fuzzed line is validated against, each
// resolved through the campaign table with every cell requested: the
// relay check and the client's checked assembly both come from it.
func relayCampaigns(t testing.TB) []server.Campaign {
	var camps []server.Campaign
	for _, req := range []server.BatchRequest{
		{Workloads: []string{"treeadd"}},
		{Plan: server.PlanTemporal, Workloads: []string{"treeadd"}},
		{Plan: server.PlanChaos, Scale: 1},
	} {
		camp, err := req.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		camps = append(camps, camp)
	}
	return camps
}

// streamLines runs a few cells of each campaign on a real backend and
// returns its raw NDJSON lines, trailers included.
func streamLines(t testing.TB, camps []server.Campaign) [][]byte {
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()
	c := server.NewClient(ts.URL)
	var lines [][]byte
	for _, camp := range camps {
		cells := camp.Cells()
		req := camp.Request([]int{cells[0], cells[len(cells)-1]})
		if err := c.StreamNDJSON(context.Background(), req, nil, func(line []byte) error {
			lines = append(lines, append([]byte(nil), line...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return lines
}

// FuzzRelayLine fuzzes the shard's trust boundary: one backend stream
// line, decoded and validated (relayLine) against a report, a temporal
// and a chaos campaign, with every requested cell assigned. Validation
// must never panic, and a cell line it accepts must be one the same
// campaign's checked assembly — the client's side of the same contract —
// accepts too: otherwise the shard relays a line that fails the client's
// campaign instead of failing over to another backend.
func FuzzRelayLine(f *testing.F) {
	camps := relayCampaigns(f)
	for _, line := range streamLines(f, camps) {
		f.Add(line)
	}
	// Identity right, payload wrong.
	f.Add([]byte(`{"seq":0,"kind":"perf","workload":"treeadd","config":"baseline","result":{"footprint":4096}}`))
	f.Add([]byte(`{"seq":0,"kind":"chaos","workload":"local-offset","config":"corrupt-meta","chaos":{"Seed":7}}`))
	f.Add([]byte(`{"seq":-1,"kind":"perf","error":"x"}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		for _, camp := range camps {
			assigned := make(map[int]bool, len(camp.Cells()))
			for _, i := range camp.Cells() {
				assigned[i] = true
			}
			cell, done, err := relayLine(camp, assigned, line)
			if err != nil || done || cell.Error != "" {
				continue
			}
			if err := camp.NewAssembly().Add(cell); err != nil {
				t.Fatalf("%+v: relay accepts a cell its checked assembly rejects: %v\nline: %s", camp.Request(nil), err, line)
			}
		}
	})
}
