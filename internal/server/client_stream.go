package server

// Streaming client for the batch endpoints: StreamNDJSON is the
// line-delivery engine, CampaignStream decodes cells and enforces the
// trailer contract, and the report helpers (BatchReport, GridReport,
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

	"infat/internal/exp"
)

// maxStreamLineBytes bounds one NDJSON line; cells are small JSON
// objects, so the bound only guards against a corrupted stream.
const maxStreamLineBytes = 1 << 20

// StreamNDJSON posts req to path and invokes onLine with each non-empty
// NDJSON line as it arrives (the line buffer is only valid during the
// call). An error from onLine aborts the stream and is returned. When
// onHeader is non-nil, it receives the response headers of every
// accepted (200) attempt before that attempt's first line.
//
// Retries follow the unary rules — transient statuses and transport
// errors, exponential backoff, Retry-After honoured — but only while no
// line has been delivered yet: once the consumer has observed part of a
// stream, replaying the request from the top would hand it duplicate
// cells, so mid-stream failures are returned as-is and truncation is
// the caller's to detect (the campaign wrappers do, via the trailer).
func (c *Client) StreamNDJSON(ctx context.Context, path string, req any, onHeader func(http.Header), onLine func(line []byte) error) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.retry(ctx, func() (bool, error) {
		delivered, err := c.streamOnce(ctx, path, body, onHeader, onLine)
		return delivered == 0 && retryable(err), err
	})
}

// streamOnce performs one streaming attempt, reporting how many lines
// it delivered to onLine (the retry-safety signal).
func (c *Client) streamOnce(ctx context.Context, path string, body []byte, onHeader func(http.Header), onLine func([]byte) error) (delivered int, err error) {
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
		// by ctx (and the server's own batch timeout) instead.
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
		return 0, newAPIError(hresp, rbody)
	}
	if onHeader != nil {
		onHeader(hresp.Header)
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

// BatchStream is CampaignStream for the full-report /v1/batch campaign.
func (c *Client) BatchStream(ctx context.Context, req BatchRequest, onCell func(BatchCell) error) (*BatchTrailer, error) {
	return c.CampaignStream(ctx, BatchPath, req, onCell)
}

// CampaignStream posts a campaign request to one of the campaign paths,
// invoking onCell for every cell line in arrival (completion) order, and
// returns the stream's trailer. A stream that ends without a trailer
// returns ErrTruncatedStream.
func (c *Client) CampaignStream(ctx context.Context, path string, req any, onCell func(BatchCell) error) (*BatchTrailer, error) {
	var trailer *BatchTrailer
	err := c.StreamNDJSON(ctx, path, req, nil, func(line []byte) error {
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

// BatchReport streams a whole /v1/batch campaign (req.Cells must be
// empty: reports need every cell) and reassembles the byte-identical
// full report — Table 4 plus Figures 10–12 — a serial ifp-bench run
// over the same workloads and scales prints.
func (c *Client) BatchReport(ctx context.Context, req BatchRequest) (string, error) {
	plan, err := req.BatchPlan()
	if err != nil {
		return "", err
	}
	return streamReport(ctx, c, BatchPath, req, plan)
}

// GridReport is BatchReport for the perf grid alone, reassembling
// exp.PerfReport from the perf cells of the request's /v1/batch
// campaign: its first cells, with the grid plan's seqs and identities.
// MemScale is cleared, since no memory cell is asked for.
func (c *Client) GridReport(ctx context.Context, req BatchRequest) (string, error) {
	plan, err := req.GridPlan()
	if err != nil {
		return "", err
	}
	req.MemScale, req.Cells = 0, make([]int, plan.NumCells())
	for i := range req.Cells {
		req.Cells[i] = i
	}
	return streamReport(ctx, c, BatchPath, req, plan)
}

// ChaosReport streams a whole /v1/chaos campaign and reassembles the
// report exp.ChaosReport renders.
func (c *Client) ChaosReport(ctx context.Context, req ChaosRequest) (string, error) {
	return streamReport(ctx, c, ChaosPath, req, req.Plan())
}

// streamReport streams a whole campaign from path and reassembles its
// report, every cell through the campaign's own checked assembly — the
// contract the shard relay enforces too.
func streamReport[C any](ctx context.Context, c *Client, path string, req any, camp exp.Campaign[C]) (string, error) {
	a := exp.NewAssembly(camp)
	if _, err := c.CampaignStream(ctx, path, req, func(cell BatchCell) error {
		if cell.Error != "" {
			return fmt.Errorf("ifp-serve: cell %d (%s|%s|%s) failed: %s",
				cell.Seq, cell.Kind, cell.Workload, cell.Config, cell.Error)
		}
		return AddCell(a, cell)
	}); err != nil {
		return "", err
	}
	return a.Report()
}
