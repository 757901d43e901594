package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"infat/internal/chaos"
	"infat/internal/exp"
	"infat/internal/rt"
)

// FuzzDecodeRunRequest fuzzes the /v1/run request decoder: whatever the
// bytes, an accepted request must satisfy every invariant the handlers
// rely on (non-empty bounded source, a real mode), and the decoder must
// never panic.
func FuzzDecodeRunRequest(f *testing.F) {
	const maxSource = 4096
	seeds := []string{
		`{"source":"int main() { return 0; }","mode":"subheap"}`,
		`{"source":"int main() { while (1) { } }","mode":"wrapped","fuel":100000}`,
		`{"source":"x"}`,
		`{"source":"x","mode":"hybrid","fuel":18446744073709551615}`,
		`{"source":"","mode":"baseline"}`,
		`{"source":"x","mode":"nope"}`,
		`{"Source":"case-sensitivity","mode":"subheap"}`,
		`{"unknown":1}`,
		`{"source":"x"} {"source":"y"}`,
		`{"source":"x","fuel":-1}`,
		`{"source":"x","fuel":"12"}`,
		`[{"source":"x"}]`,
		`null`,
		`{`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := decodeRunRequest(bytes.NewReader(data), maxSource)
		if err != nil {
			return // rejected input: nothing else to hold
		}
		if job.source == "" {
			t.Fatalf("accepted empty source from %q", data)
		}
		if len(job.source) > maxSource {
			t.Fatalf("accepted %d-byte source (limit %d)", len(job.source), maxSource)
		}
		if _, perr := rt.ParseMode(job.mode.String()); perr != nil {
			t.Fatalf("accepted unparseable mode %v from %q", job.mode, data)
		}
	})
}

// FuzzCampaignRequest fuzzes the campaign request decoder the backends
// and the shard both call (ReadCampaign): whatever the body, resolution
// must never panic, and an accepted request must name a plan of the
// campaign table and no field that plan does not take, and be bounded —
// 1 ≤ scale ≤ MaxScale, an effective memory scale within
// MaxScale×exp.MemScale (checked without multiplying, so it cannot
// overflow), and a cell subset in range with no repeats. The seeds after
// the first block must be rejected.
func FuzzCampaignRequest(f *testing.F) {
	for _, body := range []string{
		`{"scale":5}`,
		`{"workloads":["treeadd"],"scale":5,"cells":[0,1,2,3,4]}`,
		`{"plan":"chaos","scale":5}`,
		`{"plan":"chaos","scale":20000}`,
		`{"workloads":["treeadd"],"scale":2,"mem_scale":4611686018427387904,"cells":[5]}`,
		`{"workloads":["treeadd"],"scale":4,"mem_scale":4}`,
		`{"plan":"report","workloads":["treeadd"],"cells":[0,7]}`,
		`{"workloads":["treeadd"],"cells":[0,4]}`,
		`{"plan":"chaos","scale":1,"cells":[0,215]}`,
		`{"plan":"temporal","workloads":["treeadd"],"cells":[5,5]}`,
		`{"plan":"temporal","workloads":["treeadd","health"],"scale":4,"cells":[11]}`,
	} {
		f.Add(body)
	}
	for _, body := range []string{
		`{"plan":"grid"}`,
		`{"plan":"chaos","workloads":["treeadd"]}`,
		`{"plan":"chaos","mem_scale":2}`,
		`{"plan":"temporal","mem_scale":2}`,
		`{"temporal":true}`,
		`{}}`,
	} {
		if _, err := ReadCampaign(strings.NewReader(body), nil); err == nil {
			f.Fatalf("accepted %s", body)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		camp, err := ReadCampaign(strings.NewReader(body), nil)
		if err != nil {
			return
		}
		var req BatchRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("%s: accepted a body that does not decode: %v", body, err)
		}
		scale, memScale := 0, 0
		switch c := camp.(type) {
		case campaign[exp.CellResult]:
			p := c.Campaign.(exp.Plan)
			scale, memScale = p.Scale(), p.MemScale()
			if req.Plan == PlanTemporal && req.MemScale != 0 || req.Plan != PlanTemporal && req.Plan != PlanReport && req.Plan != "" {
				t.Fatalf("%s: plan %q resolved to a report-grid campaign", body, req.Plan)
			}
		case campaign[chaos.Outcome]:
			scale = c.Campaign.(exp.ChaosPlan).Scale()
			if req.Plan != PlanChaos || len(req.Workloads) > 0 || req.MemScale != 0 {
				t.Fatalf("%s: resolved to a chaos campaign", body)
			}
		default:
			t.Fatalf("%s resolved to %T", body, camp)
		}
		if scale < 1 || scale > MaxScale {
			t.Fatalf("%s: accepted scale %d", body, scale)
		}
		if memScale < 0 || memScale > MaxScale*exp.MemScale/scale {
			t.Fatalf("%s: accepted mem_scale %d at scale %d", body, memScale, scale)
		}
		seen := make(map[int]bool)
		for _, i := range camp.Cells() {
			if i < 0 || i >= camp.NumCells() || seen[i] {
				t.Fatalf("%s: accepted subset cell %d of %d (or a repeat)", body, i, camp.NumCells())
			}
			seen[i] = true
		}
	})
}
