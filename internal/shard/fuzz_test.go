package shard

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"infat/internal/exp"
	"infat/internal/server"
)

// relayPlan is one campaign a fuzzed line is validated against, with
// every cell assigned, and the checked assembly its client folds into.
type relayPlan struct {
	path   string
	plan   campaignPlan
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
	chaosPlan := server.ChaosRequest{Scale: 1}.Plan()
	addResult := func(p exp.Plan) func(server.BatchCell) error {
		return func(c server.BatchCell) error {
			if c.Result == nil {
				return errNoPayload
			}
			return p.NewAssembly().AddChecked(c.Meta(), *c.Result)
		}
	}
	return []relayPlan{
		{server.BatchPath, batch, addResult(batch)},
		{server.GridPath, grid, addResult(grid)},
		{server.ChaosPath, chaosPlan, func(c server.BatchCell) error {
			if c.Chaos == nil {
				return errNoPayload
			}
			return chaosPlan.NewAssembly().AddChecked(c.Meta(), *c.Chaos)
		}},
	}
}

var errNoPayload = errors.New("accepted cell has no payload")

// streamLines runs a few cells of each campaign on a real backend and
// returns its raw NDJSON lines, trailers included.
func streamLines(t testing.TB, plans []relayPlan) [][]byte {
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()
	c := server.NewClient(ts.URL)
	var lines [][]byte
	for _, rp := range plans {
		last := rp.plan.NumCells() - 1
		var req any = server.BatchRequest{Workloads: []string{"treeadd"}, Cells: []int{0, last}}
		if rp.path == server.ChaosPath {
			req = server.ChaosRequest{Scale: 1, Cells: []int{0, last}}
		}
		if err := c.StreamNDJSON(context.Background(), rp.path, req, func(line []byte) error {
			lines = append(lines, append([]byte(nil), line...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return lines
}

// FuzzRelayLine fuzzes the shard's trust boundary: one backend stream
// line, decoded and validated (relayLine) against a batch, a grid and a
// chaos plan with every cell assigned. Validation must never panic, and
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
			assigned := make(map[int]bool, rp.plan.NumCells())
			for i := 0; i < rp.plan.NumCells(); i++ {
				assigned[i] = true
			}
			cell, done, err := relayLine(rp.plan, assigned, line)
			if err != nil || done || cell.Error != "" {
				continue
			}
			if err := rp.accept(cell); err != nil {
				t.Fatalf("%s: relay accepts a cell its checked assembly rejects: %v\nline: %s", rp.path, err, line)
			}
		}
	})
}
