package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"infat/internal/exp"
	"infat/internal/server"
	"infat/internal/shard"
)

// fleetBackends is the number of ifp-serve backends behind each shard.
const fleetBackends = 2

// warmReplays is the number of memo-warm replays timed per fleet.
const warmReplays = 5

// backendHost is backend i's fixed host name. The shard's ring hashes
// backend URLs, so fixed names give every fleet the same cell placement
// instead of one that varies with ephemeral ports.
func backendHost(i int) string { return fmt.Sprintf("ifp-backend-%d.bench:80", i) }

// resolver dials the fixed backend host names at their current loopback
// listeners.
type resolver struct {
	mu    sync.Mutex
	addrs map[string]string
}

func (r *resolver) set(host, addr string) {
	r.mu.Lock()
	r.addrs[host] = addr
	r.mu.Unlock()
}

func (r *resolver) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	r.mu.Lock()
	if a, ok := r.addrs[addr]; ok {
		addr = a
	}
	r.mu.Unlock()
	var d net.Dialer
	return d.DialContext(ctx, network, addr)
}

// fleet is one shard over its backends, all on loopback.
type fleet struct {
	backends []*liveServer
	clients  []*server.Client // direct to each backend, for /metrics
	sh       *shard.Shard
	front    *liveServer
	client   *server.Client
	tr       *http.Transport
}

func bootFleet(c *config, res *resolver) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, fleetBackends)
	workers := max(1, c.nproc/fleetBackends)
	for i := range urls {
		live, err := listen(traceHandler(c.trace, "server.stream", server.New(server.Config{Workers: workers})))
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, live)
		res.set(backendHost(i), live.addr)
		urls[i] = "http://" + backendHost(i)
		f.clients = append(f.clients, server.NewClient(urls[i]))
	}
	sh, err := shard.New(shard.Config{Backends: urls, Seed: c.seed})
	if err != nil {
		f.close()
		return nil, err
	}
	f.sh = sh
	if f.front, err = listen(traceHandler(c.trace, "shard.handler", sh)); err != nil {
		f.close()
		return nil, err
	}
	f.client, f.tr = loadClient(f.front.url, c)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.client.WaitReady(ctx, 10*time.Second); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops the shard and every server and waits for them.
func (f *fleet) close() {
	if f.front != nil {
		f.front.close()
		f.tr.CloseIdleConnections()
	}
	if f.sh != nil {
		f.sh.Close()
	}
	for _, b := range f.backends {
		b.close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// backendCounters sums the fleet's backend memo counters and lists each
// backend's streamed-cell count.
func (f *fleet) backendCounters() (hits, misses uint64, cells []uint64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, cl := range f.clients {
		m, err := cl.Metrics(ctx)
		if err != nil {
			return 0, 0, nil, err
		}
		hits += m.Memo["hits"]
		misses += m.Memo["misses"]
		cells = append(cells, m.Batch["cells"])
	}
	return hits, misses, cells, nil
}

// shardCounters reads the shard's own /metrics counters.
func (f *fleet) shardCounters() (map[string]uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.front.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m shard.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("shard metrics: %w", err)
	}
	return m.Shard, nil
}

// campaign streams one full /v1/batch campaign through the shard,
// reassembles it with every cell's identity checked, and returns the
// report and the time to the first cell.
func (f *fleet) campaign(c *config, plan exp.Plan, names []string) (string, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	a := plan.NewAssembly()
	start := time.Now()
	var first time.Duration
	trailer, err := f.client.BatchStream(ctx, server.BatchRequest{Workloads: names}, func(cell server.BatchCell) error {
		if first == 0 {
			first = time.Since(start)
		}
		if cell.Error != "" {
			return fmt.Errorf("cell %d failed: %s", cell.Seq, cell.Error)
		}
		if cell.Result == nil {
			return fmt.Errorf("cell %d has no result", cell.Seq)
		}
		return a.AddChecked(cell.Meta(), *cell.Result)
	})
	if err != nil {
		return "", first, err
	}
	if trailer.Failed != 0 || trailer.Completed != plan.NumCells() {
		return "", first, fmt.Errorf("trailer: %d completed, %d failed of %d", trailer.Completed, trailer.Failed, plan.NumCells())
	}
	rep, err := a.Report()
	return rep, first, err
}

// campaignRun is one campaign_shard measurement in progress.
type campaignRun struct {
	c      *config
	o      *outcome
	plan   exp.Plan
	cells  uint64
	names  []string
	res    *resolver
	wasted map[string]float64 // the shard's wasted-work counters, summed

	replays, firstCell, skews, streams []float64
	replayHits, replayLookups          uint64
}

// runCampaign is campaign_shard: per fleet, one cold full campaign on
// empty memo stores, then warm replays of the same campaign.
func runCampaign(c *config) (*outcome, error) {
	r := &campaignRun{c: c, o: newOutcome(), plan: exp.NewReportPlan(c.ws, 1, exp.MemScale),
		res: &resolver{addrs: map[string]string{}}, wasted: map[string]float64{}}
	r.cells = uint64(r.plan.NumCells())
	for _, w := range c.ws {
		r.names = append(r.names, w.Name)
	}
	orig := http.DefaultTransport
	http.DefaultTransport = &http.Transport{DialContext: r.res.dial, MaxIdleConnsPerHost: c.nproc, DisableCompression: true}
	defer func() { http.DefaultTransport = orig }()

	o := r.o
	o.begin()
	for n := 0; o.more(c, n, 1); n++ {
		if err := r.fleetRound(); err != nil {
			return nil, err
		}
	}
	o.layer["shard.replay_ms"] = median(r.replays)
	o.layer["client.first_cell_ms"] = median(r.firstCell)
	o.layer["shard.backend_cells_skew"] = median(r.skews)
	o.layer["server.stream_s"] = median(r.streams) / 1000
	if r.replayLookups > 0 {
		o.layer["memo.hit_ratio"] = float64(r.replayHits) / float64(r.replayLookups)
	}
	for k, v := range r.wasted {
		o.layer[k] = v
	}
	if len(r.replays) == 0 && o.failed == 0 {
		return nil, errors.New("no warm replay completed")
	}
	return o, nil
}

// check runs one campaign, verifies its report, and returns its wall
// time.
func (r *campaignRun) check(f *fleet, what string) (time.Duration, error) {
	id := r.c.trace.newID()
	start := time.Now()
	rep, first, err := f.campaign(r.c, r.plan, r.names)
	end := time.Now()
	r.c.trace.add(id, "campaign."+what, start, end, 0, 0)
	r.o.attempted++
	if err == nil && reportDigest(rep) != r.c.golden {
		err = fmt.Errorf("report sha256 %s, golden %s", reportDigest(rep), r.c.golden)
	}
	if err != nil {
		r.o.fail("%s campaign: %v", what, err)
		return 0, err
	}
	if what == "cold" {
		r.firstCell = append(r.firstCell, float64(first)/1e6)
		r.streams = append(r.streams, r.c.trace.within("server.stream", start, end)...)
	}
	return end.Sub(start), nil
}

// fleetRound boots a fleet, runs its campaigns in one slice between host
// probes, and tears the fleet down. The replays share the cold
// campaign's slice so that every slice's memory peak is a cold
// campaign's.
func (r *campaignRun) fleetRound() error {
	o := r.o
	start := time.Now()
	f, err := bootFleet(r.c, r.res)
	if err != nil {
		return fmt.Errorf("fleet boot: %w", err)
	}
	o.addSetup(time.Since(start).Seconds(), probeRefMs/o.probes[len(o.probes)-1])
	defer f.close()
	var cold time.Duration
	_, scale := o.slice(r.c, func() { cold, err = r.campaigns(f) })
	if err != nil {
		return err
	}
	if cold > 0 {
		ms := float64(cold) / 1e6
		o.addOp(ms, ms*scale)
		o.addRate(1, cold, scale)
	}
	sc, err := f.shardCounters()
	if err != nil {
		return err
	}
	for _, k := range []string{"hedged_cells", "reassigned_cells", "dup_suppressed", "corrupt_lines"} {
		r.wasted["shard."+k] += float64(sc[k])
	}
	return nil
}

// campaigns runs the fleet's cold campaign and then its warm replays,
// checks the backends' memo counters after each, and returns the cold
// campaign's wall time. A failed campaign is counted, not returned, and
// a failed cold campaign returns 0 and skips the replays: the next
// fleet starts clean.
func (r *campaignRun) campaigns(f *fleet) (time.Duration, error) {
	o := r.o
	h0, m0, c0, err := f.backendCounters()
	if err != nil {
		return 0, err
	}
	cold, err := r.check(f, "cold")
	if err != nil {
		return 0, nil
	}
	h1, m1, c1, err := f.backendCounters()
	if err != nil {
		return 0, err
	}
	if h1 != h0 || m1-m0 != r.cells {
		o.fail("cold campaign: %d memo hits and %d misses over %d cells", h1-h0, m1-m0, r.cells)
	}
	r.skews = append(r.skews, skew(c0, c1))
	for i := 0; i < warmReplays; i++ {
		d, err := r.check(f, "replay")
		if err != nil {
			continue
		}
		r.replays = append(r.replays, float64(d)/1e6)
		h2, m2, _, err := f.backendCounters()
		if err != nil {
			return 0, err
		}
		if h2-h1 != r.cells || m2 != m1 {
			o.fail("replay: %d memo hits and %d misses over %d cells", h2-h1, m2-m1, r.cells)
		}
		r.replayHits += h2 - h1
		r.replayLookups += h2 - h1 + m2 - m1
		h1, m1 = h2, m2
	}
	return cold, nil
}

// skew is the busiest backend's streamed cells over the mean, from two
// snapshots of every backend's batch.cells counter.
func skew(before, after []uint64) float64 {
	var total, top float64
	for i := range after {
		d := float64(after[i] - before[i])
		total += d
		top = max(top, d)
	}
	if total == 0 {
		return 0
	}
	return top / (total / float64(len(after)))
}
