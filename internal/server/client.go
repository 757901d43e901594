package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client retry defaults.
const (
	// DefaultMaxAttempts is the per-call attempt cap when Client.MaxAttempts
	// is zero: one initial try plus three retries.
	DefaultMaxAttempts = 4
	// DefaultRetryBase is the first backoff delay; it doubles per retry.
	DefaultRetryBase = 50 * time.Millisecond
	// maxRetryDelay caps the exponential backoff so late attempts stay
	// responsive to the request context.
	maxRetryDelay = 2 * time.Second
	// maxRetryAfterHint caps how long the client honours a server's
	// Retry-After header over its own computed backoff, so a misconfigured
	// (or hostile) server cannot park clients for minutes.
	maxRetryAfterHint = 30 * time.Second
)

// Client is a minimal Go client for ifp-serve, used by the handler
// tests and the daemon's -selftest mode so the service can be exercised
// end-to-end without curl.
//
// Transient failures — 503 (admission rejection), 429, and transport
// errors like a connection refused during daemon startup — are retried
// with exponential backoff and jitter, bounded by MaxAttempts and the
// request context. Context cancellation and every other HTTP status
// (including 504: the work may have run) are never retried.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client; nil selects a client with a
	// conservative overall timeout.
	HTTP *http.Client
	// MaxAttempts caps tries per call (0 = DefaultMaxAttempts, 1 = no
	// retries).
	MaxAttempts int
	// RetryBase is the first backoff delay (0 = DefaultRetryBase).
	RetryBase time.Duration
	// NoRetry disables retrying entirely (equivalent to MaxAttempts 1).
	NoRetry bool
	// Jitter draws the random component added to each backoff delay, in
	// [0, max). nil selects the shared process-wide source. Tests (and
	// NewClientSeeded) install a deterministic source here; a custom
	// Jitter must be safe for concurrent use if the client is. The field
	// is a function, not a *rand.Rand, so Client stays copyable
	// (WaitReady copies the client to loosen its retry caps).
	Jitter func(max time.Duration) time.Duration
}

// NewClient builds a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{Timeout: 2 * DefaultRequestTimeout},
	}
}

// NewClientSeeded is NewClient with a deterministic backoff jitter
// source seeded from seed: every retry schedule the client produces is
// reproducible run-to-run. The source is owned by this client (not the
// process-wide one) and is safe for concurrent use.
func NewClientSeeded(baseURL string, seed uint64) *Client {
	c := NewClient(baseURL)
	c.Jitter = seededJitter(seed)
	return c
}

// seededJitter builds a concurrency-safe jitter function over its own
// PCG source. The closure owns the source and its mutex, so the Client
// carrying it remains freely copyable.
func seededJitter(seed uint64) func(max time.Duration) time.Duration {
	var mu sync.Mutex
	rng := rand.New(rand.NewPCG(seed, seed))
	return func(max time.Duration) time.Duration {
		if max <= 0 {
			return 0
		}
		mu.Lock()
		defer mu.Unlock()
		return time.Duration(rng.Int64N(int64(max)))
	}
}

// APIError is a non-2xx response, carrying the decoded error body.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After back-pressure hint, when the
	// response carried one (0 otherwise). The retry loop prefers it over
	// the computed backoff, capped at maxRetryAfterHint.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("ifp-serve: HTTP %d: %s", e.Status, e.Message)
}

// Run submits a MiniC program. cached reports whether the response was
// served from the server's result cache (the CacheHeader).
func (c *Client) Run(ctx context.Context, req RunRequest) (resp *RunResponse, cached bool, err error) {
	resp = new(RunResponse)
	hdr, err := c.post(ctx, "/v1/run", req, resp)
	if err != nil {
		return nil, false, err
	}
	return resp, hdr.Get(CacheHeader) == "hit", nil
}

// Juliet runs one generated Juliet case.
func (c *Client) Juliet(ctx context.Context, req JulietRequest) (*JulietResponse, error) {
	resp := new(JulietResponse)
	if _, err := c.post(ctx, "/v1/juliet", req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// JulietCases lists the generated case names.
func (c *Client) JulietCases(ctx context.Context) ([]string, error) {
	resp := new(JulietListResponse)
	if err := c.get(ctx, "/v1/juliet", resp); err != nil {
		return nil, err
	}
	return resp.Cases, nil
}

// Workload runs one cell of the §5.2 evaluation grid.
func (c *Client) Workload(ctx context.Context, req WorkloadRequest) (*WorkloadResponse, error) {
	resp := new(WorkloadResponse)
	if _, err := c.post(ctx, "/v1/workload", req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Healthz checks liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.get(ctx, "/healthz", &map[string]string{})
}

// Metrics fetches the counter snapshot.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	resp := new(MetricsSnapshot)
	if err := c.get(ctx, "/metrics", resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// WaitReady polls /healthz until it answers or the deadline passes —
// for callers that just started the daemon. It is the retry loop with
// the attempt cap effectively removed: a refused connection keeps
// retrying (with small, capped backoff) until the context deadline.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	probe := *c
	probe.NoRetry = false
	probe.MaxAttempts = 1 << 20 // bounded by ctx, not by the attempt cap
	probe.RetryBase = 20 * time.Millisecond
	if err := probe.Healthz(ctx); err != nil {
		return fmt.Errorf("ifp-serve: not ready within %v: %w", timeout, err)
	}
	return nil
}

func (c *Client) post(ctx context.Context, path string, req, resp any) (http.Header, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.do(ctx, http.MethodPost, path, body, resp)
}

func (c *Client) get(ctx context.Context, path string, resp any) error {
	_, err := c.do(ctx, http.MethodGet, path, nil, resp)
	return err
}

// do runs one logical call: it rebuilds the HTTP request from the
// marshaled body each attempt (readers cannot be replayed) and retries
// transient failures with exponential backoff.
func (c *Client) do(ctx context.Context, method, path string, body []byte, resp any) (http.Header, error) {
	var hdr http.Header
	err := c.retry(ctx, func() (bool, error) {
		var err error
		hdr, err = c.doOnce(ctx, method, path, body, resp)
		return retryable(err), err
	})
	return hdr, err
}

// retry runs attempt until it succeeds, fails for good (attempt reports
// the failure not worth retrying), or the attempt budget runs out,
// backing off exponentially between attempts.
func (c *Client) retry(ctx context.Context, attempt func() (retry bool, err error)) error {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultMaxAttempts
	}
	if c.NoRetry {
		attempts = 1
	}
	base := c.RetryBase
	if base <= 0 {
		base = DefaultRetryBase
	}
	for n := 1; ; n++ {
		again, err := attempt()
		if err == nil || !again || n >= attempts {
			return err
		}
		d := c.backoff(base, n)
		// The server's own back-pressure estimate beats the client's
		// blind schedule: an admission rejection's Retry-After says how
		// long a worker slot realistically takes to drain.
		if hint := retryAfterHint(err); hint > 0 {
			if hint > maxRetryAfterHint {
				hint = maxRetryAfterHint
			}
			d = hint
		}
		if serr := sleepCtx(ctx, d); serr != nil {
			// Context expired while backing off: surface the context
			// error promptly, joined with the last real failure so
			// callers can still errors.As the APIError they observed.
			return errors.Join(serr, err)
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, resp any) (http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	SetDeadlineHeader(hreq.Header, ctx)
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	rbody, err := io.ReadAll(io.LimitReader(hresp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode/100 != 2 {
		return hresp.Header, newAPIError(hresp, rbody)
	}
	if err := json.Unmarshal(rbody, resp); err != nil {
		return hresp.Header, fmt.Errorf("ifp-serve: bad response body: %w", err)
	}
	return hresp.Header, nil
}

// newAPIError decodes a non-2xx response into an APIError.
func newAPIError(hresp *http.Response, body []byte) *APIError {
	var apiErr ErrorResponse
	if json.Unmarshal(body, &apiErr) != nil || apiErr.Error == "" {
		apiErr.Error = strings.TrimSpace(string(body))
	}
	return &APIError{
		Status:     hresp.StatusCode,
		Message:    apiErr.Error,
		RetryAfter: parseRetryAfter(hresp.Header.Get(RetryAfterHeader)),
	}
}

// retryable reports whether a failure is worth another attempt: 503
// (admission rejection) and 429 are explicit back-off-and-retry signals,
// and transport-level errors (connection refused/reset) are transient by
// nature. Context cancellation is the caller giving up, and any other
// HTTP status is a definitive answer — neither is retried.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusServiceUnavailable ||
			apiErr.Status == http.StatusTooManyRequests
	}
	var uerr *url.Error
	return errors.As(err, &uerr)
}

// parseRetryAfter decodes a Retry-After header value in its
// integer-seconds form (the only form ifp-serve emits). Absent,
// malformed, or non-positive values mean "no hint".
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// retryAfterHint extracts the server's Retry-After hint from the last
// failure, if it was an APIError carrying one.
func retryAfterHint(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// backoff returns the delay before the retry-th retry: exponential
// doubling from base, capped, plus up to 25% jitter so synchronized
// clients do not reconverge on the server in lockstep. The jitter comes
// from the client's Jitter source when set (per-client, seedable — so a
// test can pin the whole schedule), else from the process-wide source.
//
// The schedule is overflow-proof by construction: doubling stops the
// moment d reaches maxRetryDelay, so the loop runs at most
// log2(cap/base) iterations however large retry grows (WaitReady runs
// with an attempt cap near 2^20), and d never exceeds twice the cap
// before the clamp — it cannot wrap negative. A non-positive base
// (possible only when backoff is called outside do's defaulting) is
// normalised first so the doubling invariant holds.
func (c *Client) backoff(base time.Duration, retry int) time.Duration {
	if base <= 0 {
		base = DefaultRetryBase
	}
	d := base
	for i := 1; i < retry && d < maxRetryDelay; i++ {
		d *= 2
	}
	if d > maxRetryDelay || d <= 0 {
		d = maxRetryDelay
	}
	jitter := c.Jitter
	if jitter == nil {
		jitter = defaultJitter
	}
	return d + jitter(d/4+1)
}

// defaultJitter draws from math/rand/v2's process-wide generator, which
// is seeded randomly at startup and safe for concurrent use without a
// shared lock in this package.
func defaultJitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(max)))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
