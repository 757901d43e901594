package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"infat/internal/exp"
	"infat/internal/server"
	"infat/internal/shard"
	"infat/internal/workloads"
)

// selftestWorkloads is a representative subset so the selftest proves
// the full perf+memory reassembly contract in seconds, not minutes.
var selftestWorkloads = []string{"treeadd", "health", "ks"}

// runSelftest boots two in-process ifp-serve backends and the shard
// front tier on loopback ports, then proves the tier's core contracts
// end to end: consistent routing (a repeated run hits the owning
// backend's cache), batch fan-out reassembling byte-identical to a
// serial run with every cell computed exactly once, a replay served
// wholly from the memo stores of the backends that computed it, chaos
// campaign equivalence, fleet metrics aggregation, and failover — one
// backend killed mid-fleet, the report still exact.
func runSelftest() error {
	backendSrvs := make([]*http.Server, 2)
	urls := make([]string, 2)
	for i := range backendSrvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		backendSrvs[i] = &http.Server{Handler: server.New(server.Config{})}
		go backendSrvs[i].Serve(ln)
		defer backendSrvs[i].Close()
		urls[i] = "http://" + ln.Addr().String()
	}

	front, err := shard.New(shard.Config{
		Backends:       urls,
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  time.Second,
		DownAfter:      1,
	})
	if err != nil {
		return err
	}
	defer front.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: front}
	go srv.Serve(ln)
	defer srv.Close()
	shardURL := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := server.NewClient(shardURL)
	if err := c.WaitReady(ctx, 5*time.Second); err != nil {
		return err
	}

	// The serial ground truth the shard must reproduce byte-for-byte.
	var ws []workloads.Workload
	for _, name := range selftestWorkloads {
		w, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("unknown selftest workload %q", name)
		}
		ws = append(ws, w)
	}
	plan := exp.NewReportPlan(ws, 1, exp.MemScale)
	wantReport, err := exp.RunReport(plan, 0)
	if err != nil {
		return err
	}
	cells := uint64(plan.NumCells())
	// batchMemo runs the batch campaign and checks the report and the
	// memo hits and misses it adds across the fleet. A replay (no misses
	// wanted) must also leave every cell on the backend that served it.
	batchMemo := func(wantHits, wantMisses uint64) error {
		h0, m0, s0, err := fleetCounters(ctx, shardURL, urls)
		if err != nil {
			return err
		}
		got, err := c.BatchReport(ctx, server.BatchRequest{Workloads: selftestWorkloads})
		if err != nil {
			return err
		}
		if got != wantReport {
			return errors.New("shard batch report differs from serial run")
		}
		h1, m1, s1, err := fleetCounters(ctx, shardURL, urls)
		if err != nil {
			return err
		}
		if h1-h0 != wantHits || m1-m0 != wantMisses {
			return fmt.Errorf("%d cells: %d memo hits and %d misses, want %d and %d", cells, h1-h0, m1-m0, wantHits, wantMisses)
		}
		if wantMisses == 0 && s1 != s0 {
			return fmt.Errorf("replay moved %d cells off the backends that served them", s1-s0)
		}
		return nil
	}
	wantChaos, err := exp.RunReport(exp.NewChaosPlan(1), 0)
	if err != nil {
		return err
	}

	step := func(name string, fn func() error) error {
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println("ifp-shard: selftest:", name, "ok")
		return nil
	}

	const good = "int main() { print(42); return 7; }"
	steps := []struct {
		name string
		fn   func() error
	}{
		{"routed run lands on one backend", func() error {
			resp, cached, err := c.Run(ctx, server.RunRequest{Source: good, Mode: "subheap"})
			if err != nil {
				return err
			}
			if cached || resp.Exit != 7 {
				return fmt.Errorf("first run: cached=%v exit=%d", cached, resp.Exit)
			}
			// The repeat must route to the same backend and hit its cache —
			// the consistent-hashing contract observed from outside.
			if _, cached, err = c.Run(ctx, server.RunRequest{Source: good, Mode: "subheap"}); err != nil {
				return err
			}
			if !cached {
				return errors.New("repeated run was not a cache hit: routing is unstable")
			}
			return nil
		}},
		// Each cell is computed once, by whichever backend ran it...
		{"fanned-out batch reassembles byte-identical", func() error { return batchMemo(0, cells) }},
		// ...and a replay goes back to that backend's memo store.
		{"replayed batch is all memo hits", func() error { return batchMemo(cells, 0) }},
		{"chaos campaign equivalence", func() error {
			got, err := c.ChaosReport(ctx, server.ChaosRequest{})
			if err != nil {
				return err
			}
			if got != wantChaos {
				return errors.New("shard chaos report differs from local run")
			}
			return nil
		}},
		{"fleet metrics aggregate", func() error {
			var m shard.MetricsResponse
			if err := getJSON(ctx, shardURL+"/metrics", &m); err != nil {
				return err
			}
			if len(m.Backends) != 2 {
				return fmt.Errorf("%d backends in metrics, want 2", len(m.Backends))
			}
			if m.Aggregate.Requests["total"] == 0 || m.Aggregate.Batch["cells"] == 0 {
				return fmt.Errorf("aggregate counters empty: %v", m.Aggregate.Requests)
			}
			if m.Shard["batch_streams"] < 2 || m.Shard["proxied"] < 2 {
				return fmt.Errorf("shard counters %v", m.Shard)
			}
			return nil
		}},
		{"backend loss: drained and byte-identical", func() error {
			backendSrvs[0].Close()
			// Health probes run every 50ms with DownAfter=1: the dead
			// backend must drain from /healthz.
			deadline := time.Now().Add(5 * time.Second)
			for {
				var h map[string]string
				if err := getJSON(ctx, shardURL+"/healthz", &h); err != nil {
					return err
				}
				if h[urls[0]] == "down" {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("backend never drained: %v", h)
				}
				time.Sleep(20 * time.Millisecond)
			}
			got, err := c.BatchReport(ctx, server.BatchRequest{Workloads: selftestWorkloads})
			if err != nil {
				return err
			}
			if got != wantReport {
				return errors.New("post-failover batch report differs from serial run")
			}
			return nil
		}},
	}
	for _, st := range steps {
		if err := step(st.name, st.fn); err != nil {
			return err
		}
	}
	return nil
}

// fleetCounters sums the memo hit and miss counters of the backends at
// urls and reads the shard's stolen_cells.
func fleetCounters(ctx context.Context, shardURL string, urls []string) (hits, misses, stolen uint64, err error) {
	for _, u := range urls {
		m, err := server.NewClient(u).Metrics(ctx)
		if err != nil {
			return 0, 0, 0, err
		}
		hits += m.Memo["hits"]
		misses += m.Memo["misses"]
	}
	var m shard.MetricsResponse
	if err := getJSON(ctx, shardURL+"/metrics", &m); err != nil {
		return 0, 0, 0, err
	}
	return hits, misses, m.Shard["stolen_cells"], nil
}

// getJSON fetches and decodes one JSON response (any status).
func getJSON(ctx context.Context, url string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(dst)
}
