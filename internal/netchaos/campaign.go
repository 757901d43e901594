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
//     at least one fault, or the run proved nothing.
//
// The campaign is the -netchaos gate in CI: it fails loudly (typed
// per-run diagnostics) and passes only when the whole grid holds.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"infat/internal/exp"
	"infat/internal/server"
	"infat/internal/shard"
	"infat/internal/workloads"
)

// Campaign defaults, tuned so the full grid finishes in CI minutes
// under -race while still forcing every recovery path to fire.
var defaultCampaignWorkloads = []string{"treeadd", "health"}

// CampaignConfig parameterizes RunCampaign. The zero value runs the
// full default grid.
type CampaignConfig struct {
	// Workloads are the batch-campaign workload names
	// (nil = treeadd, health).
	Workloads []string
	// Scale is the batch perf scale (0 = 1).
	Scale int
	// ChaosScale is the chaos-campaign scale (0 = 1).
	ChaosScale int
	// SkipChaos drops the chaos legs from the grid (batch legs only).
	SkipChaos bool
	// Seeds are the per-grid-point determinism seeds (nil = {1, 2}).
	Seeds []uint64
	// FaultSet are the faults to exercise (nil = all of Faults).
	FaultSet []Fault
	// Backends is the fleet size behind the shard (0 = 2).
	Backends int
	// MaxFaults is each proxy's sabotage budget (0 = DefaultMaxFaults).
	MaxFaults int
	// Latency is the injected delay / slowloris pause (0 = 30ms).
	Latency time.Duration
	// StallCap bounds blackhole stalls (0 = 2s).
	StallCap time.Duration
	// HedgeAfter is the shard's straggler budget (0 = 1s: longer than an
	// honest cell, shorter than a blackhole or slowloris stall, so hedges
	// fire for sabotage, not for ordinary work).
	HedgeAfter time.Duration
	// RelayTimeout is the shard's per-relay bound (0 = 30s). Injected
	// stalls are bounded by StallCap, so this only has to beat the
	// slowest honest cell — generous headroom matters more than speed,
	// because CI runs the campaign under -race at a multiple of normal
	// cell latency, and a relay bound tighter than a legitimate cell
	// turns the control arm flaky.
	RelayTimeout time.Duration
	// MaxRounds caps the client's re-request loop per leg (0 = 8).
	MaxRounds int
	// RoundPause is the wait between client re-request rounds, giving the
	// shard's health probes time to close breakers a faulted round opened
	// (0 = 150ms).
	RoundPause time.Duration
	// Logf, when set, receives per-run progress lines.
	Logf func(format string, args ...any)
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if len(c.Workloads) == 0 {
		c.Workloads = defaultCampaignWorkloads
	}
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.ChaosScale < 1 {
		c.ChaosScale = 1
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1, 2}
	}
	if len(c.FaultSet) == 0 {
		c.FaultSet = Faults
	}
	if c.Backends < 1 {
		c.Backends = 2
	}
	if c.MaxFaults == 0 {
		c.MaxFaults = DefaultMaxFaults
	}
	if c.Latency <= 0 {
		c.Latency = 30 * time.Millisecond
	}
	if c.StallCap <= 0 {
		c.StallCap = 2 * time.Second
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = time.Second
	}
	if c.RelayTimeout <= 0 {
		c.RelayTimeout = 30 * time.Second
	}
	if c.MaxRounds < 1 {
		c.MaxRounds = 8
	}
	if c.RoundPause <= 0 {
		c.RoundPause = 150 * time.Millisecond
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

	// Shard-side accounting (this run's shard, so counters are absolute).
	FailedOver    uint64            `json:"failed_over"`    // cells reassigned after a backend loss
	Hedged        uint64            `json:"hedged"`         // straggler cells re-dispatched
	Shed          uint64            `json:"shed"`           // cells emitted as error cells
	CorruptLines  uint64            `json:"corrupt_lines"`  // backend lines the shard's validation rejected
	DupSuppressed uint64            `json:"dup_suppressed"` // duplicate lines the shard's dedup dropped
	Breakers      map[string]string `json:"breakers,omitempty"`

	// Gates.
	Lost            int    `json:"lost"`             // cells never assembled (must be 0)
	ReportIdentical bool   `json:"report_identical"` // byte-identical to the serial ground truth
	Failure         string `json:"failure,omitempty"`
}

// recovered reports how many cells arrived despite needing some rescue.
func (s RunStats) recovered() uint64 { return s.FailedOver + s.Hedged + uint64(s.RetriedCells) }

// CampaignResult is the whole grid's outcome.
type CampaignResult struct {
	Runs   []RunStats `json:"runs"`
	Failed int        `json:"failed"` // runs whose gates did not hold
}

// RunCampaign executes the full (fault × seed × campaign) grid and
// returns the per-run stats. The returned error is non-nil iff any
// run's gates failed — zero lost, zero corrupt-accepted (byte-identical
// report), sabotage observed — making the call directly usable as a CI
// gate.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	for _, name := range cfg.Workloads {
		if _, ok := workloads.ByName(name); !ok {
			return nil, fmt.Errorf("netchaos: unknown workload %q", name)
		}
	}

	// Serial ground truths, computed once: the byte-exact answers every
	// faulted run must still produce.
	batchReq := server.BatchRequest{Workloads: cfg.Workloads, Scale: cfg.Scale}
	batchPlan, err := batchReq.BatchPlan()
	if err != nil {
		return nil, err
	}
	wantBatch, err := serialBatchReport(batchPlan)
	if err != nil {
		return nil, err
	}
	var wantChaos string
	var wantInternal int
	chaosReq := server.ChaosRequest{Scale: cfg.ChaosScale}
	chaosPlan := chaosReq.Plan()
	if !cfg.SkipChaos {
		wantChaos, wantInternal, err = serialChaosReport(chaosPlan)
		if err != nil {
			return nil, err
		}
	}

	res := &CampaignResult{}
	var failures []error
	for _, fault := range cfg.FaultSet {
		for _, seed := range cfg.Seeds {
			legs := []string{"batch"}
			if !cfg.SkipChaos {
				legs = append(legs, "chaos")
			}
			for _, leg := range legs {
				stats, err := runLeg(cfg, leg, fault, seed, batchReq, batchPlan, wantBatch,
					chaosReq, chaosPlan, wantChaos, wantInternal)
				if err != nil {
					stats.Failure = err.Error()
					failures = append(failures, fmt.Errorf("netchaos: %s fault=%s seed=%d: %w", leg, fault, seed, err))
					res.Failed++
				}
				res.Runs = append(res.Runs, stats)
				logf("netchaos: %-5s fault=%-9s seed=%d cells=%d injected=%d rounds=%d failed_over=%d hedged=%d shed=%d corrupt_lines=%d dup_suppressed=%d retried=%d lost=%d identical=%v",
					leg, fault, seed, stats.Cells, stats.Injected, stats.Rounds,
					stats.FailedOver, stats.Hedged, stats.Shed, stats.CorruptLines,
					stats.DupSuppressed, stats.RetriedCells, stats.Lost, stats.ReportIdentical)
			}
		}
	}
	if len(failures) > 0 {
		return res, errors.Join(failures...)
	}
	return res, nil
}

// serialBatchReport runs every plan cell locally and renders the
// reassembled report — the ground truth a faulted run must match.
func serialBatchReport(plan exp.Plan) (string, error) {
	a := plan.NewAssembly()
	for i := 0; i < plan.NumCells(); i++ {
		r, err := plan.RunCell(i)
		if err != nil {
			return "", err
		}
		if err := a.Add(i, r); err != nil {
			return "", err
		}
	}
	return a.Report()
}

// serialChaosReport is serialBatchReport for the chaos campaign.
func serialChaosReport(plan exp.ChaosPlan) (string, int, error) {
	a := plan.NewAssembly()
	for i := 0; i < plan.NumCells(); i++ {
		if err := a.Add(i, plan.RunCell(i)); err != nil {
			return "", 0, err
		}
	}
	return a.Report()
}

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
	proxyURLs := make([]string, cfg.Backends)
	for i := 0; i < cfg.Backends; i++ {
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
			Latency:   cfg.Latency,
			StallCap:  cfg.StallCap,
		})
		st.proxies = append(st.proxies, p)
		if proxyURLs[i], err = serve(p); err != nil {
			st.close()
			return nil, err
		}
	}
	front, err := shard.New(shard.Config{
		Backends:         proxyURLs,
		HealthInterval:   50 * time.Millisecond,
		HealthTimeout:    time.Second,
		DownAfter:        2,
		BreakerThreshold: 2,
		BreakerCooldown:  150 * time.Millisecond,
		HedgeAfter:       cfg.HedgeAfter,
		RelayTimeout:     cfg.RelayTimeout,
		Seed:             seed,
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
func runLeg(cfg CampaignConfig, leg string, fault Fault, seed uint64,
	batchReq server.BatchRequest, batchPlan exp.Plan, wantBatch string,
	chaosReq server.ChaosRequest, chaosPlan exp.ChaosPlan, wantChaos string, wantInternal int) (RunStats, error) {

	stats := RunStats{Campaign: leg, Fault: fault, Seed: seed}
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

	switch leg {
	case "batch":
		stats.Cells = batchPlan.NumCells()
		err = runBatchLeg(ctx, st.client, cfg, batchReq, batchPlan, wantBatch, &stats)
	case "chaos":
		stats.Cells = chaosPlan.NumCells()
		err = runChaosLeg(ctx, st.client, cfg, chaosReq, chaosPlan, wantChaos, wantInternal, &stats)
	default:
		err = fmt.Errorf("netchaos: unknown leg %q", leg)
	}
	stats.Injected = st.injected()
	scrapeShard(ctx, st.shardURL, &stats)
	if err != nil {
		return stats, err
	}

	// Gates.
	if stats.Lost > 0 {
		return stats, fmt.Errorf("%d of %d cells lost", stats.Lost, stats.Cells)
	}
	if !stats.ReportIdentical {
		return stats, errors.New("reassembled report differs from the serial ground truth")
	}
	if fault != FaultNone && stats.Injected == 0 {
		return stats, errors.New("no faults injected: the run proved nothing")
	}
	if fault == FaultNone && stats.Injected != 0 {
		return stats, fmt.Errorf("control arm injected %d faults", stats.Injected)
	}
	return stats, nil
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

// runBatchLeg streams the batch campaign, re-requesting missing cells
// until the assembly completes (or rounds run out), then byte-compares
// the reassembled report.
func runBatchLeg(ctx context.Context, c *server.Client, cfg CampaignConfig,
	req server.BatchRequest, plan exp.Plan, want string, stats *RunStats) error {
	a := plan.NewAssembly()
	for round := 0; round < cfg.MaxRounds; round++ {
		missing := a.Missing()
		if len(missing) == 0 {
			break
		}
		stats.Rounds++
		sub := req
		if round > 0 {
			sub.Cells = missing
			stats.RetriedCells += len(missing)
			// Pause so the shard's health probes can close breakers the
			// previous faulted round opened; without it the rounds spin
			// faster than the tier can heal.
			pauseCtx(ctx, cfg.RoundPause)
		}
		_, err := c.BatchStream(ctx, sub, func(cell server.BatchCell) error {
			if cell.Error != "" {
				stats.ErrorCells++
				return nil // shed cell: re-requested next round
			}
			if cell.Result == nil {
				stats.CorruptRejected++
				return nil
			}
			return addOutcome(a.AddChecked(cell.Meta(), *cell.Result), stats)
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

// runChaosLeg is runBatchLeg for the chaos campaign.
func runChaosLeg(ctx context.Context, c *server.Client, cfg CampaignConfig,
	req server.ChaosRequest, plan exp.ChaosPlan, want string, wantInternal int, stats *RunStats) error {
	a := plan.NewAssembly()
	for round := 0; round < cfg.MaxRounds; round++ {
		missing := a.Missing()
		if len(missing) == 0 {
			break
		}
		stats.Rounds++
		sub := req
		if round > 0 {
			sub.Cells = missing
			stats.RetriedCells += len(missing)
			pauseCtx(ctx, cfg.RoundPause)
		}
		_, err := c.ChaosStream(ctx, sub, func(cell server.BatchCell) error {
			if cell.Error != "" {
				stats.ErrorCells++
				return nil
			}
			if cell.Chaos == nil {
				stats.CorruptRejected++
				return nil
			}
			return addOutcome(a.AddChecked(cell.Meta(), *cell.Chaos), stats)
		})
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			stats.StreamErrors++
		}
	}
	stats.Lost = len(a.Missing())
	if stats.Lost > 0 {
		return nil
	}
	got, internal, err := a.Report()
	if err != nil {
		return err
	}
	stats.ReportIdentical = got == want && internal == wantInternal
	return nil
}

// pauseCtx sleeps for d or until ctx is done.
func pauseCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// scrapeShard folds the run's final shard counters and breaker states
// into stats. Best-effort: a scrape failure leaves the fields zero.
func scrapeShard(ctx context.Context, shardURL string, stats *RunStats) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shardURL+"/metrics", nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var m shard.MetricsResponse
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return
	}
	stats.FailedOver = m.Shard["reassigned_cells"]
	stats.Hedged = m.Shard["hedged_cells"]
	stats.Shed = m.Shard["shed_cells"]
	stats.CorruptLines = m.Shard["corrupt_lines"]
	stats.DupSuppressed = m.Shard["dup_suppressed"]
	stats.Breakers = make(map[string]string, len(m.Breakers))
	urls := make([]string, 0, len(m.Breakers))
	for u := range m.Breakers {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		stats.Breakers[u] = m.Breakers[u].State
	}
}

// Summary condenses a campaign result for reports and the bench schema.
type Summary struct {
	Runs          int    `json:"runs"`
	Failed        int    `json:"failed"`
	Cells         int    `json:"cells"`
	Injected      uint64 `json:"injected"`
	Recovered     uint64 `json:"recovered"`
	FailedOver    uint64 `json:"failed_over"`
	Hedged        uint64 `json:"hedged"`
	Shed          uint64 `json:"shed"`
	CorruptLines  uint64 `json:"corrupt_lines"`
	DupSuppressed uint64 `json:"dup_suppressed"`
	Lost          int    `json:"lost"`
	AllIdentical  bool   `json:"all_identical"`
}

// Summarize folds per-run stats into campaign totals.
func (r *CampaignResult) Summarize() Summary {
	s := Summary{Runs: len(r.Runs), Failed: r.Failed, AllIdentical: true}
	for _, run := range r.Runs {
		s.Cells += run.Cells
		s.Injected += run.Injected
		s.Recovered += run.recovered()
		s.FailedOver += run.FailedOver
		s.Hedged += run.Hedged
		s.Shed += run.Shed
		s.CorruptLines += run.CorruptLines
		s.DupSuppressed += run.DupSuppressed
		s.Lost += run.Lost
		if !run.ReportIdentical {
			s.AllIdentical = false
		}
	}
	return s
}
