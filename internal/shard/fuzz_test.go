package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"infat/internal/exp"
	"infat/internal/server"
)

// relayPlan is one campaign a fuzzed line is validated against, with
// every requested cell assigned, and the checked assembly its client
// folds into.
type relayPlan struct {
	path   string
	camp   server.Campaign
	accept func(server.BatchCell) error
}

func relayPlans(t testing.TB) []relayPlan {
	req := server.BatchRequest{Workloads: []string{"treeadd"}}
	batch, err := req.BatchPlan()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := req.GridPlan()
	if err != nil {
		t.Fatal(err)
	}
	// GridReport's campaign: the perf cells of /v1/batch, assembled into
	// the grid plan.
	perf := req
	for i := 0; i < grid.NumCells(); i++ {
		perf.Cells = append(perf.Cells, i)
	}
	chaosReq := server.ChaosRequest{Scale: 1}
	return []relayPlan{
		{server.BatchPath, resolveRoute(t, server.BatchPath, req), clientAccepts(batch)},
		{server.BatchPath, resolveRoute(t, server.BatchPath, perf), clientAccepts(grid)},
		{server.ChaosPath, resolveRoute(t, server.ChaosPath, chaosReq), clientAccepts(chaosReq.Plan())},
	}
}

// resolveRoute resolves req through the campaign route at path, as the
// shard's handler does.
func resolveRoute(t testing.TB, path string, req any) server.Campaign {
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range server.CampaignRoutes {
		if route.Path == path {
			camp, err := route.Resolve(bytes.NewReader(body), nil)
			if err != nil {
				t.Fatal(err)
			}
			return camp
		}
	}
	t.Fatalf("no campaign route %s", path)
	return nil
}

// clientAccepts is the client's side of the contract: the cell's payload
// folded into the campaign's checked assembly.
func clientAccepts[C any](c exp.Campaign[C]) func(server.BatchCell) error {
	return func(cell server.BatchCell) error { return server.AddCell(exp.NewAssembly(c), cell) }
}

// streamLines runs a few cells of each campaign on a real backend and
// returns its raw NDJSON lines, trailers included.
func streamLines(t testing.TB, plans []relayPlan) [][]byte {
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()
	c := server.NewClient(ts.URL)
	var lines [][]byte
	for _, rp := range plans {
		cells := rp.camp.Cells()
		ends := []int{cells[0], cells[len(cells)-1]}
		var req any = server.BatchRequest{Workloads: []string{"treeadd"}, Cells: ends}
		if rp.path == server.ChaosPath {
			req = server.ChaosRequest{Scale: 1, Cells: ends}
		}
		if err := c.StreamNDJSON(context.Background(), rp.path, req, nil, func(line []byte) error {
			lines = append(lines, append([]byte(nil), line...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return lines
}

// FuzzRelayLine fuzzes the shard's trust boundary: one backend stream
// line, decoded and validated (relayLine) against a whole batch
// campaign, its perf cells alone and a chaos campaign, with every
// requested cell assigned. Validation must never panic, and
// a cell line it accepts must be one the matching checked assembly — the
// client's side of the same contract — accepts too: otherwise the shard
// relays a line that fails the client's campaign instead of failing
// over to another backend.
func FuzzRelayLine(f *testing.F) {
	plans := relayPlans(f)
	for _, line := range streamLines(f, plans) {
		f.Add(line)
	}
	// Identity right, payload wrong.
	f.Add([]byte(`{"seq":0,"kind":"perf","workload":"treeadd","config":"baseline","result":{"footprint":4096}}`))
	f.Add([]byte(`{"seq":0,"kind":"chaos","workload":"local-offset","config":"corrupt-meta","chaos":{"Seed":7}}`))
	f.Add([]byte(`{"seq":-1,"kind":"perf","error":"x"}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		for _, rp := range plans {
			assigned := make(map[int]bool, len(rp.camp.Cells()))
			for _, i := range rp.camp.Cells() {
				assigned[i] = true
			}
			cell, done, err := relayLine(rp.camp, assigned, line)
			if err != nil || done || cell.Error != "" {
				continue
			}
			if err := rp.accept(cell); err != nil {
				t.Fatalf("%s: relay accepts a cell its checked assembly rejects: %v\nline: %s", rp.path, err, line)
			}
		}
	})
}
