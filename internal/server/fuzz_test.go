package server

import (
	"bytes"
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

// FuzzCampaignRequest fuzzes the campaign resolver the backends and the
// shard both call (CampaignRoutes): whatever the (path, body), resolution
// must never panic, and an accepted request must be bounded — 1 ≤ scale
// ≤ MaxScale, an effective memory scale within MaxScale×exp.MemScale
// (checked without multiplying, so it cannot overflow), and a cell
// subset in range with no repeats.
func FuzzCampaignRequest(f *testing.F) {
	for _, seed := range []struct{ path, body string }{
		{BatchPath, `{"scale":5}`},
		{BatchPath, `{"workloads":["treeadd"],"scale":5,"cells":[0,1,2,3,4]}`},
		{ChaosPath, `{"scale":5}`},
		{ChaosPath, `{"scale":20000}`},
		{BatchPath, `{"workloads":["treeadd"],"scale":2,"mem_scale":4611686018427387904,"cells":[5]}`},
		{BatchPath, `{"workloads":["treeadd"],"scale":4,"mem_scale":4}`},
		{BatchPath, `{"workloads":["treeadd"],"cells":[0,7]}`},
		{BatchPath, `{"workloads":["treeadd"],"cells":[0,4]}`},
		{ChaosPath, `{"scale":1,"cells":[0,215]}`},
		{BatchPath, `{"workloads":["treeadd"],"temporal":true,"cells":[5,5]}`},
		{ChaosPath, `{"workloads":["treeadd"]}`},
		{"/v1/run", `{}`},
	} {
		f.Add(seed.path, seed.body)
	}
	f.Fuzz(func(t *testing.T, path, body string) {
		for _, route := range CampaignRoutes {
			if route.Path != path {
				continue
			}
			camp, err := route.Resolve(strings.NewReader(body), nil)
			if err != nil {
				return
			}
			scale, memScale := 0, 0
			switch c := camp.(type) {
			case campaign[exp.CellResult]:
				p := c.Campaign.(exp.Plan)
				scale, memScale = p.Scale(), p.MemScale()
			case campaign[chaos.Outcome]:
				scale = c.Campaign.(exp.ChaosPlan).Scale()
			default:
				t.Fatalf("%s resolved to %T", path, camp)
			}
			if scale < 1 || scale > MaxScale {
				t.Fatalf("%s %s: accepted scale %d", path, body, scale)
			}
			if memScale < 0 || memScale > MaxScale*exp.MemScale/scale {
				t.Fatalf("%s %s: accepted mem_scale %d at scale %d", path, body, memScale, scale)
			}
			seen := make(map[int]bool)
			for _, i := range camp.Cells() {
				if i < 0 || i >= camp.NumCells() || seen[i] {
					t.Fatalf("%s %s: accepted subset cell %d of %d (or a repeat)", path, body, i, camp.NumCells())
				}
				seen[i] = true
			}
		}
	})
}
