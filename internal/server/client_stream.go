package server

// Streaming client for the batch endpoints: StreamNDJSON is the
// line-delivery engine, the typed campaign wrappers (BatchStream,
// GridStream, ChaosStream) decode cells and enforce the trailer
// contract, and the report helpers (BatchReport, GridReport,
// ChaosReport) reassemble a whole streamed campaign into the
// byte-identical report a serial ifp-bench run prints.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"infat/internal/exp"
)

// maxStreamLineBytes bounds one NDJSON line; cells are small JSON
// objects, so the bound only guards against a corrupted stream.
const maxStreamLineBytes = 1 << 20

// StreamNDJSON posts req to path and invokes onLine with each non-empty
// NDJSON line as it arrives (the line buffer is only valid during the
// call). An error from onLine aborts the stream and is returned.
//
// Retries follow the unary rules — transient statuses and transport
// errors, exponential backoff, Retry-After honoured — but only while no
// line has been delivered yet: once the consumer has observed part of a
// stream, replaying the request from the top would hand it duplicate
// cells, so mid-stream failures are returned as-is and truncation is
// the caller's to detect (the campaign wrappers do, via the trailer).
func (c *Client) StreamNDJSON(ctx context.Context, path string, req any, onLine func(line []byte) error) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
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
	for attempt := 1; ; attempt++ {
		delivered, err := c.streamOnce(ctx, path, body, onLine)
		if err == nil {
			return nil
		}
		if delivered > 0 || attempt >= attempts || !retryable(err) {
			return err
		}
		d := c.backoff(base, attempt)
		if hint := retryAfterHint(err); hint > 0 {
			if hint > maxRetryAfterHint {
				hint = maxRetryAfterHint
			}
			d = hint
		}
		if serr := sleepCtx(ctx, d); serr != nil {
			return errors.Join(serr, err)
		}
	}
}

// streamOnce performs one streaming attempt, reporting how many lines
// it delivered to onLine (the retry-safety signal).
func (c *Client) streamOnce(ctx context.Context, path string, body []byte, onLine func([]byte) error) (delivered int, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	SetDeadlineHeader(hreq.Header, ctx)
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	if hc.Timeout > 0 {
		// The unary client's overall timeout covers reading the whole
		// response body — wrong for a long-lived stream, which is bounded
		// by ctx (and the server's own BatchTimeout) instead.
		streaming := *hc
		streaming.Timeout = 0
		hc = &streaming
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		rbody, _ := io.ReadAll(io.LimitReader(hresp.Body, maxStreamLineBytes))
		var apiErr ErrorResponse
		if json.Unmarshal(rbody, &apiErr) != nil || apiErr.Error == "" {
			apiErr.Error = strings.TrimSpace(string(rbody))
		}
		return 0, &APIError{
			Status:     hresp.StatusCode,
			Message:    apiErr.Error,
			RetryAfter: parseRetryAfter(hresp.Header.Get(RetryAfterHeader)),
		}
	}
	sc := bufio.NewScanner(hresp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxStreamLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		delivered++
		if err := onLine(line); err != nil {
			return delivered, err
		}
	}
	if err := sc.Err(); err != nil {
		return delivered, fmt.Errorf("ifp-serve: stream read: %w", err)
	}
	return delivered, nil
}

// ErrTruncatedStream reports a batch stream that ended without its
// trailer: the server stopped mid-campaign (disconnect, deadline, or
// crash) and the received cells are an incomplete set.
var ErrTruncatedStream = errors.New("ifp-serve: truncated stream: no trailer")

// BatchStream posts a full-report campaign to /v1/batch, invoking
// onCell for every cell line in arrival (completion) order, and returns
// the stream's trailer. A stream that ends without a trailer returns
// ErrTruncatedStream.
func (c *Client) BatchStream(ctx context.Context, req BatchRequest, onCell func(BatchCell) error) (*BatchTrailer, error) {
	return c.campaignStream(ctx, BatchPath, req, onCell)
}

// GridStream is BatchStream for the perf-only /v1/grid campaign.
func (c *Client) GridStream(ctx context.Context, req BatchRequest, onCell func(BatchCell) error) (*BatchTrailer, error) {
	return c.campaignStream(ctx, GridPath, req, onCell)
}

// ChaosStream is BatchStream for the /v1/chaos fault-injection
// campaign; cells carry Chaos payloads.
func (c *Client) ChaosStream(ctx context.Context, req ChaosRequest, onCell func(BatchCell) error) (*BatchTrailer, error) {
	return c.campaignStream(ctx, ChaosPath, req, onCell)
}

func (c *Client) campaignStream(ctx context.Context, path string, req any, onCell func(BatchCell) error) (*BatchTrailer, error) {
	var trailer *BatchTrailer
	err := c.StreamNDJSON(ctx, path, req, func(line []byte) error {
		// The trailer is the one line with done=true; cell lines have no
		// done field, so probing with the trailer shape is unambiguous.
		var t BatchTrailer
		if json.Unmarshal(line, &t) == nil && t.Done {
			trailer = &t
			return nil
		}
		var cell BatchCell
		if err := json.Unmarshal(line, &cell); err != nil {
			return fmt.Errorf("ifp-serve: bad stream line %q: %w", line, err)
		}
		return onCell(cell)
	})
	if err != nil {
		return nil, err
	}
	if trailer == nil {
		return nil, ErrTruncatedStream
	}
	return trailer, nil
}

// cellError converts an error cell into the error the report helpers
// surface.
func cellError(cell BatchCell) error {
	return fmt.Errorf("ifp-serve: cell %d (%s|%s|%s) failed: %s",
		cell.Seq, cell.Kind, cell.Workload, cell.Config, cell.Error)
}

// addToAssembly folds one grid/batch cell into an exp.Assembly, through
// the same cell contract (exp.CheckCell) the shard relay enforces.
func addToAssembly(a *exp.Assembly, cell BatchCell) error {
	if cell.Error != "" {
		return cellError(cell)
	}
	if cell.Result == nil {
		return fmt.Errorf("ifp-serve: cell %d missing result payload", cell.Seq)
	}
	return a.AddChecked(cell.Meta(), *cell.Result)
}

// BatchReport streams a whole /v1/batch campaign (req.Cells must be
// empty: reports need every cell) and reassembles the byte-identical
// full report — Table 4 plus Figures 10–12 — a serial ifp-bench run
// over the same workloads and scales prints.
func (c *Client) BatchReport(ctx context.Context, req BatchRequest) (string, error) {
	plan, err := req.BatchPlan()
	if err != nil {
		return "", err
	}
	a := plan.NewAssembly()
	if _, err := c.BatchStream(ctx, req, func(cell BatchCell) error {
		return addToAssembly(a, cell)
	}); err != nil {
		return "", err
	}
	return a.Report()
}

// GridReport is BatchReport for the perf-only campaign, reassembling
// exp.PerfReport.
func (c *Client) GridReport(ctx context.Context, req BatchRequest) (string, error) {
	plan, err := req.GridPlan()
	if err != nil {
		return "", err
	}
	a := plan.NewAssembly()
	if _, err := c.GridStream(ctx, req, func(cell BatchCell) error {
		return addToAssembly(a, cell)
	}); err != nil {
		return "", err
	}
	return a.Report()
}

// ChaosReport streams a whole /v1/chaos campaign and reassembles the
// report plus internal-outcome count exp.ChaosReport produces.
func (c *Client) ChaosReport(ctx context.Context, req ChaosRequest) (string, int, error) {
	a := req.Plan().NewAssembly()
	if _, err := c.ChaosStream(ctx, req, func(cell BatchCell) error {
		if cell.Error != "" {
			return cellError(cell)
		}
		if cell.Chaos == nil {
			return fmt.Errorf("ifp-serve: cell %d missing chaos payload", cell.Seq)
		}
		return a.AddChecked(cell.Meta(), *cell.Chaos)
	}); err != nil {
		return "", 0, err
	}
	return a.Report()
}
