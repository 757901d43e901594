package netchaos

// The fault campaign: boot an in-process serving stack — ifp-serve
// backends, one fault-injecting proxy in front of each, the shard front
// tier over the proxies — and run real streamed campaigns through it
// for every (fault × seed × campaign-type) grid point, verifying after
// each that the self-healing tier delivered exactly the answer a
// serial, fault-free run produces:
//
//   - zero lost cells: every plan cell eventually assembled;
//   - zero duplicated cells accepted: the assembly's dedup contract
//     holds (duplicates the shard's own dedup missed are rejected);
//   - zero corrupt cells accepted: the final report is byte-identical
//     to the serial ground truth, so no mangled payload slipped through;
//   - sabotage actually happened: each faulted run must have injected
//     at least one fault, or the run proved nothing;
//   - the control arm (FaultNone) holds the healthy fleet's contracts,
//     read from the shard's /metrics: a cold leg computes every cell
//     exactly once, a replay of it is byte-identical and served wholly
//     from the memo stores of the backends that computed it, a repeated
//     /v1/run is a cache hit, /metrics lists every backend, and no cell
//     needs recovery work.
//
// The campaign is the -netchaos gate in CI, and its control and refuse
// arms at one seed are ifp-shard -selftest: it fails loudly (typed
// per-run diagnostics) and passes only when the whole grid holds.

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
)

// Campaign settings, tuned so the full grid finishes in CI minutes
// under -race while still forcing every recovery path to fire.
var defaultCampaignWorkloads = []string{"treeadd", "health"}

const (
	// campaignScale is the batch perf scale.
	campaignScale = 1
	// chaosScale is the chaos-campaign scale.
	chaosScale = 1
	// fleetSize is the number of backends behind the shard.
	fleetSize = 2
	// faultLatency is the injected delay and slowloris pause.
	faultLatency = 30 * time.Millisecond
	// maxRounds caps the client's re-request loop per leg.
	maxRounds = 8
	// roundPause is the wait between client re-request rounds, giving the
	// shard's health probes time to readmit the backends a faulted round
	// drained.
	roundPause = 150 * time.Millisecond
)

// CampaignConfig parameterizes RunCampaign. The zero value runs the
// full default grid.
type CampaignConfig struct {
	// Workloads are the batch-campaign workload names
	// (nil = treeadd, health).
	Workloads []string
	// SkipChaos drops the chaos legs from the grid (batch legs only).
	SkipChaos bool
	// Seeds are the per-grid-point determinism seeds (nil = {1, 2}).
	Seeds []uint64
	// FaultSet are the faults to exercise (nil = all of Faults).
	FaultSet []Fault
	// MaxFaults is each proxy's sabotage budget (0 = DefaultMaxFaults).
	MaxFaults int
	// Logf, when set, receives per-run progress lines.
	Logf func(format string, args ...any)
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if len(c.Workloads) == 0 {
		c.Workloads = defaultCampaignWorkloads
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1, 2}
	}
	if len(c.FaultSet) == 0 {
		c.FaultSet = Faults
	}
	return c
}

// RunStats is one grid point's outcome: what was injected, what the
// recovery machinery did about it, and whether the gates held.
type RunStats struct {
	Campaign string `json:"campaign"` // "batch" | "chaos"
	Fault    Fault  `json:"fault"`
	Seed     uint64 `json:"seed"`

	Cells    int    `json:"cells"`
	Injected uint64 `json:"injected"` // faults the proxies actually fired
	Rounds   int    `json:"rounds"`   // client request rounds used

	// Client-side accounting.
	StreamErrors    int `json:"stream_errors"`    // whole-stream failures the client retried around
	RetriedCells    int `json:"retried_cells"`    // cells re-requested in later rounds
	ErrorCells      int `json:"error_cells"`      // explicit error cells received (shed by the shard)
	DupRejected     int `json:"dup_rejected"`     // duplicates the assembly refused
	CorruptRejected int `json:"corrupt_rejected"` // corrupt cells the assembly refused

	// Shard is the "shard" section of the run's /metrics, read after the
	// run. The shard is the run's own, so every counter is absolute.
	Shard map[string]uint64 `json:"shard"`

	// Gates.
	Lost            int    `json:"lost"`             // cells never assembled (must be 0)
	ReportIdentical bool   `json:"report_identical"` // byte-identical to the serial ground truth
	Failure         string `json:"failure,omitempty"`
}

// recovered reports how many cells arrived despite needing some rescue.
func (s RunStats) recovered() uint64 {
	return s.Shard["reassigned_cells"] + s.Shard["hedged_cells"] + uint64(s.RetriedCells)
}

// recoveryCounters are the shard counters of recovery work: cells
// reassigned after a backend loss, hedged, shed as error cells, and
// backend lines rejected as corrupt or dropped as duplicates. On a
// healthy fleet each stays 0.
var recoveryCounters = []string{"reassigned_cells", "hedged_cells", "shed_cells", "corrupt_lines", "dup_suppressed"}

// formatCounters renders the shard counters a campaign reports: the
// cells stolen to balance work, then the recovery work.
func formatCounters(m map[string]uint64) string {
	s := fmt.Sprintf("stolen_cells=%d", m["stolen_cells"])
	for _, k := range recoveryCounters {
		s += fmt.Sprintf(" %s=%d", k, m[k])
	}
	return s
}

// CampaignResult is the whole grid's outcome.
type CampaignResult struct {
	Runs   []RunStats `json:"runs"`
	Failed int        `json:"failed"` // runs whose gates did not hold
}

// RunCampaign executes the full (fault × seed × campaign) grid and
// returns the per-run stats. The returned error is non-nil iff any
// run's gates failed — zero lost, zero corrupt-accepted (byte-identical
// report), sabotage observed, and the control arm's healthy-fleet
// contracts — making the call directly usable as a CI gate.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Ground truths, computed once locally: the byte-exact answers every
	// faulted run must still produce. Resolving the batch plan rejects an
	// unknown workload.
	batchReq := server.BatchRequest{Workloads: cfg.Workloads, Scale: campaignScale}
	batchPlan, err := batchReq.BatchPlan()
	if err != nil {
		return nil, err
	}
	batch, err := newLeg("batch", server.BatchPath, batchReq, batchPlan)
	if err != nil {
		return nil, err
	}
	legs := []leg{batch}
	if !cfg.SkipChaos {
		chaosReq := server.ChaosRequest{Scale: chaosScale}
		lg, err := newLeg("chaos", server.ChaosPath, chaosReq, chaosReq.Plan())
		if err != nil {
			return nil, err
		}
		legs = append(legs, lg)
	}

	res := &CampaignResult{}
	var failures []error
	for _, fault := range cfg.FaultSet {
		for _, seed := range cfg.Seeds {
			for _, lg := range legs {
				stats, err := runLeg(cfg, lg, fault, seed)
				if err != nil {
					stats.Failure = err.Error()
					failures = append(failures, fmt.Errorf("netchaos: %s fault=%s seed=%d: %w", lg.name, fault, seed, err))
					res.Failed++
				}
				res.Runs = append(res.Runs, stats)
				logf("netchaos: %-5s fault=%-9s seed=%d cells=%d injected=%d rounds=%d %s retried=%d lost=%d identical=%v",
					lg.name, fault, seed, stats.Cells, stats.Injected, stats.Rounds,
					formatCounters(stats.Shard), stats.RetriedCells, stats.Lost, stats.ReportIdentical)
			}
		}
	}
	if len(failures) > 0 {
		return res, errors.Join(failures...)
	}
	return res, nil
}

// leg is one campaign type of the grid: its cell count and the client
// side of one faulted run.
type leg struct {
	name  string
	cells int
	run   func(ctx context.Context, c *server.Client, stats *RunStats) error
}

// newLeg computes the campaign's ground truth and binds the leg that
// streams it from path.
func newLeg[C any](name, path string, req campaignRequest, camp exp.Campaign[C]) (leg, error) {
	want, err := exp.RunReport(camp, 0)
	if err != nil {
		return leg{}, err
	}
	return leg{name, camp.NumCells(), func(ctx context.Context, c *server.Client, stats *RunStats) error {
		return streamLeg(ctx, c, path, req, camp, want, stats)
	}}, nil
}

// campaignRequest is a campaign endpoint's request body
// (server.BatchRequest or server.ChaosRequest).
type campaignRequest interface{ WithCells(cells []int) any }

// stack is one booted serving tier: backends, proxies, shard, and the
// handles the campaign needs to drive and then tear it all down.
type stack struct {
	client   *server.Client
	shardURL string
	proxies  []*Proxy
	closers  []func()
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

func (st *stack) injected() uint64 {
	var n uint64
	for _, p := range st.proxies {
		n += p.Injected()
	}
	return n
}

// bootStack builds backends, one fault proxy per backend, and the shard
// over the proxies, all on loopback listeners.
func bootStack(cfg CampaignConfig, fault Fault, seed uint64) (*stack, error) {
	st := &stack{}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		st.closers = append(st.closers, func() { srv.Close() })
		return "http://" + ln.Addr().String(), nil
	}
	proxyURLs := make([]string, fleetSize)
	for i := range proxyURLs {
		backendURL, err := serve(server.New(server.Config{}))
		if err != nil {
			st.close()
			return nil, err
		}
		p := New(Config{
			Target:    backendURL,
			Fault:     fault,
			Seed:      seed + uint64(i)*0x9E3779B97F4A7C15,
			MaxFaults: cfg.MaxFaults,
			Latency:   faultLatency,
		})
		st.proxies = append(st.proxies, p)
		if proxyURLs[i], err = serve(p); err != nil {
			st.close()
			return nil, err
		}
	}
	front, err := shard.New(shard.Config{
		Backends:       proxyURLs,
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  time.Second,
		DownAfter:      2,
		Seed:           seed,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.closers = append(st.closers, front.Close)
	if st.shardURL, err = serve(front); err != nil {
		st.close()
		return nil, err
	}
	st.client = server.NewClientSeeded(st.shardURL, seed)
	st.client.RetryBase = 20 * time.Millisecond
	st.client.MaxAttempts = 6
	return st, nil
}

// runLeg boots a fresh faulted stack and drives one campaign leg
// through it, enforcing the gates.
func runLeg(cfg CampaignConfig, lg leg, fault Fault, seed uint64) (RunStats, error) {
	stats := RunStats{Campaign: lg.name, Fault: fault, Seed: seed, Cells: lg.cells}
	st, err := bootStack(cfg, fault, seed)
	if err != nil {
		return stats, err
	}
	defer st.close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := st.client.WaitReady(ctx, 10*time.Second); err != nil {
		return stats, err
	}

	err = lg.run(ctx, st.client, &stats)
	stats.Injected = st.injected()
	cold, scrapeErr := scrapeShard(ctx, st.shardURL)
	stats.Shard = cold.Shard
	if err := errors.Join(err, scrapeErr); err != nil {
		return stats, err
	}

	// Gates.
	if err := checkLeg(stats); err != nil {
		return stats, err
	}
	if fault != FaultNone {
		if stats.Injected == 0 {
			return stats, errors.New("no faults injected: the run proved nothing")
		}
		return stats, nil
	}
	return stats, checkHealthy(ctx, st, lg, cold, &stats)
}

// checkLeg is every leg's gate: no cell lost, and the reassembled report
// byte-identical to the serial ground truth.
func checkLeg(stats RunStats) error {
	if stats.Lost > 0 {
		return fmt.Errorf("%d of %d cells lost", stats.Lost, stats.Cells)
	}
	if !stats.ReportIdentical {
		return errors.New("reassembled report differs from the serial ground truth")
	}
	return nil
}

// checkHealthy gates the control arm. Its fleet is fresh and nothing
// faults it, so cold, the /metrics read after the cold leg, holds that
// leg's work alone: it must have a snapshot of every backend, and every
// cell computed exactly once, which is one memo miss on the backend that
// ran it. The same leg streamed again must be identical and served
// wholly from the memo stores of the backends that computed it, with no
// cell stolen off them. Neither leg may cause recovery work, and a
// repeated /v1/run must land on the backend that cached it. stats.Shard
// takes the final counters.
func checkHealthy(ctx context.Context, st *stack, lg leg, cold shard.MetricsResponse, stats *RunStats) error {
	listed := 0
	for _, b := range cold.Backends {
		if snap, ok := b.(map[string]any); ok && snap["error"] == nil {
			listed++
		}
	}
	if listed != fleetSize {
		return fmt.Errorf("control arm: /metrics has the snapshots of %d backends, want %d", listed, fleetSize)
	}
	replay := RunStats{Cells: lg.cells}
	if err := lg.run(ctx, st.client, &replay); err != nil {
		return fmt.Errorf("control arm: replay: %w", err)
	}
	if err := checkLeg(replay); err != nil {
		return fmt.Errorf("control arm: replay: %w", err)
	}
	warm, err := scrapeShard(ctx, st.shardURL)
	if err != nil {
		return err
	}
	stats.Shard = warm.Shard
	// A healthy fleet gives the recovery machinery nothing to do: work
	// there is a false alarm, such as a healthy cell computed twice.
	for _, k := range recoveryCounters {
		if warm.Shard[k] != 0 {
			return fmt.Errorf("control arm: recovery work on a healthy fleet: %s", formatCounters(warm.Shard))
		}
	}
	cells := uint64(lg.cells)
	if hits, misses := cold.Aggregate.Memo["hits"], cold.Aggregate.Memo["misses"]; hits != 0 || misses != cells {
		return fmt.Errorf("control arm: cold leg of %d cells made %d memo hits and %d misses, want 0 and %d", cells, hits, misses, cells)
	}
	hits := warm.Aggregate.Memo["hits"] - cold.Aggregate.Memo["hits"]
	misses := warm.Aggregate.Memo["misses"] - cold.Aggregate.Memo["misses"]
	if hits != cells || misses != 0 {
		return fmt.Errorf("control arm: replay of %d cells made %d memo hits and %d misses, want %d and 0", cells, hits, misses, cells)
	}
	if stolen := warm.Shard["stolen_cells"] - cold.Shard["stolen_cells"]; stolen != 0 {
		return fmt.Errorf("control arm: replay moved %d cells off the backends that served them", stolen)
	}

	run := server.RunRequest{Source: "int main() { print(42); return 7; }", Mode: "subheap"}
	for i := 0; i < 2; i++ {
		_, cached, err := st.client.Run(ctx, run)
		if err != nil {
			return fmt.Errorf("control arm: run: %w", err)
		}
		if cached != (i == 1) {
			return fmt.Errorf("control arm: run %d of a program: cached=%v, so routing is unstable", i+1, cached)
		}
	}
	return nil
}

// addOutcome classifies one assembly verdict into the client-side
// counters, returning a non-nil error only for contract violations that
// should abort the leg (never for typed duplicate/corrupt rejections —
// those are the machinery working).
func addOutcome(err error, stats *RunStats) error {
	switch {
	case err == nil:
	case errors.Is(err, exp.ErrDuplicateCell):
		stats.DupRejected++
	case errors.Is(err, exp.ErrCorruptCell):
		stats.CorruptRejected++
	default:
		return err
	}
	return nil
}

// streamLeg streams the campaign from path, re-requesting missing cells
// until the assembly completes (or rounds run out), then byte-compares
// the reassembled report.
func streamLeg[C any](ctx context.Context, c *server.Client, path string,
	req campaignRequest, camp exp.Campaign[C], want string, stats *RunStats) error {
	a := exp.NewAssembly(camp)
	for round := 0; round < maxRounds; round++ {
		missing := a.Missing()
		if len(missing) == 0 {
			break
		}
		stats.Rounds++
		var cells []int // round 0 asks for the whole campaign
		if round > 0 {
			cells = missing
			stats.RetriedCells += len(missing)
			// Pause so the shard's health probes can readmit backends the
			// previous faulted round drained; without it the rounds spin
			// faster than the tier can heal.
			sleepCtx(ctx, roundPause)
		}
		_, err := c.CampaignStream(ctx, path, req.WithCells(cells), func(cell server.BatchCell) error {
			if cell.Error != "" {
				stats.ErrorCells++
				return nil // shed cell: re-requested next round
			}
			return addOutcome(server.AddCell(a, cell), stats)
		})
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			stats.StreamErrors++ // truncated or reset mid-stream: next round re-requests
		}
	}
	stats.Lost = len(a.Missing())
	if stats.Lost > 0 {
		return nil // the gate reports it with full context
	}
	got, err := a.Report()
	if err != nil {
		return err
	}
	stats.ReportIdentical = got == want
	return nil
}

// scrapeShard reads the shard's GET /metrics: its own counters, the
// fleet's aggregate, and each backend's snapshot.
func scrapeShard(ctx context.Context, shardURL string) (shard.MetricsResponse, error) {
	var m shard.MetricsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shardURL+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return m, fmt.Errorf("scrape shard metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode shard metrics: %w", err)
	}
	return m, nil
}

// Summary condenses a campaign result for reports.
type Summary struct {
	Runs      int    `json:"runs"`
	Failed    int    `json:"failed"`
	Cells     int    `json:"cells"`
	Injected  uint64 `json:"injected"`
	Recovered uint64 `json:"recovered"`
	// Shard sums every run's shard counters.
	Shard        map[string]uint64 `json:"shard"`
	Lost         int               `json:"lost"`
	AllIdentical bool              `json:"all_identical"`
}

// Summarize folds per-run stats into campaign totals.
func (r *CampaignResult) Summarize() Summary {
	s := Summary{Runs: len(r.Runs), Failed: r.Failed, Shard: make(map[string]uint64), AllIdentical: true}
	for _, run := range r.Runs {
		s.Cells += run.Cells
		s.Injected += run.Injected
		s.Recovered += run.recovered()
		for k, v := range run.Shard {
			s.Shard[k] += v
		}
		s.Lost += run.Lost
		if !run.ReportIdentical {
			s.AllIdentical = false
		}
	}
	return s
}

// String renders the summary as one report line.
func (s Summary) String() string {
	return fmt.Sprintf("%d runs (%d failed), %d cells, %d faults injected, %d recovered, %s, %d lost",
		s.Runs, s.Failed, s.Cells, s.Injected, s.Recovered, formatCounters(s.Shard), s.Lost)
}
