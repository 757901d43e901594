package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestBackoffLargeRetryTable audits the backoff schedule far past the
// doubling range: for any retry count — including the ~2^20 attempts
// WaitReady configures — the delay is clamped monotonically at
// maxRetryDelay and never wraps negative, whatever the base.
func TestBackoffLargeRetryTable(t *testing.T) {
	c := NewClient("http://unused")
	c.Jitter = func(max time.Duration) time.Duration {
		if max <= 0 {
			t.Fatalf("jitter bound %v not positive", max)
		}
		return max - 1 // worst case a real source draws
	}
	maxJittered := maxRetryDelay + maxRetryDelay/4 // absolute ceiling incl. jitter
	for _, base := range []time.Duration{
		time.Nanosecond,
		DefaultRetryBase,
		time.Second,
		maxRetryDelay,
		time.Hour,
		1 << 62, // pathological: near-overflow base
		0,       // invalid: normalised to the default
		-time.Second,
	} {
		prev := time.Duration(0)
		for _, retry := range []int{1, 2, 8, 31, 32, 33, 64, 100, 1000, 1 << 20} {
			d := c.backoff(base, retry)
			if d <= 0 {
				t.Fatalf("backoff(base=%v, retry=%d) = %v: wrapped or zero", base, retry, d)
			}
			if d > maxJittered {
				t.Fatalf("backoff(base=%v, retry=%d) = %v exceeds ceiling %v", base, retry, d, maxJittered)
			}
			if d < prev {
				t.Fatalf("backoff(base=%v) not monotone: retry=%d gives %v after %v", base, retry, d, prev)
			}
			prev = d
		}
		// Deep in the schedule the clamp must be exact: cap plus the
		// injected worst-case jitter of the cap's bound.
		if got, want := c.backoff(base, 1<<20), maxRetryDelay+maxRetryDelay/4; got != want {
			t.Errorf("backoff(base=%v, retry=1<<20) = %v, want clamped %v", base, got, want)
		}
	}
}

// TestAPIErrorCarriesRetryAfter: the client surfaces the server's
// Retry-After hint on the typed error.
func TestAPIErrorCarriesRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(RetryAfterHeader, "7")
		http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := fastClient(ts.URL)
	c.MaxAttempts = 1
	err := c.Healthz(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if apiErr.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s", apiErr.RetryAfter)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"1":    time.Second,
		" 30 ": 30 * time.Second,
		"0":    0,
		"-5":   0,
		"":     0,
		"soon": 0,
		"1.5":  0, // integer-seconds form only
	} {
		if got := parseRetryAfter(in); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestClientHonorsRetryAfterOverBackoff: with a computed backoff of an
// hour, a server saying "Retry-After: 1" must be believed — the retry
// happens in about a second, not an hour.
func TestClientHonorsRetryAfterOverBackoff(t *testing.T) {
	h, calls := flakyHandler(1, http.StatusServiceUnavailable, healthOK)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(RetryAfterHeader, "1")
		h(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.RetryBase = time.Hour // would stall the test if the hint were ignored
	start := time.Now()
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("err = %v after Retry-After retry", err)
	}
	elapsed := time.Since(start)
	if elapsed < 900*time.Millisecond || elapsed > 10*time.Second {
		t.Errorf("retried after %v, want ~1s (the server's hint)", elapsed)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("%d attempts, want 2", got)
	}
}

// TestGetEndpointsRideRetryLoop: the GET-based client calls (Metrics,
// JulietCases) go through the same retry loop as POSTs — a transient
// 503 is retried to success.
func TestGetEndpointsRideRetryLoop(t *testing.T) {
	t.Run("metrics", func(t *testing.T) {
		h, calls := flakyHandler(2, http.StatusServiceUnavailable, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, MetricsSnapshot{Requests: map[string]uint64{"total": 1}})
		})
		ts := httptest.NewServer(h)
		defer ts.Close()
		m, err := fastClient(ts.URL).Metrics(context.Background())
		if err != nil || m.Requests["total"] != 1 {
			t.Fatalf("Metrics = %+v, %v after retries", m, err)
		}
		if got := calls.Load(); got != 3 {
			t.Errorf("%d attempts, want 3", got)
		}
	})
	t.Run("juliet list", func(t *testing.T) {
		h, calls := flakyHandler(2, http.StatusServiceUnavailable, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, JulietListResponse{Count: 1, Cases: []string{"x"}})
		})
		ts := httptest.NewServer(h)
		defer ts.Close()
		cases, err := fastClient(ts.URL).JulietCases(context.Background())
		if err != nil || len(cases) != 1 {
			t.Fatalf("JulietCases = %v, %v after retries", cases, err)
		}
		if got := calls.Load(); got != 3 {
			t.Errorf("%d attempts, want 3", got)
		}
	})
}

// TestCancelDuringBackoffReturnsContextError: cancellation during a
// backoff sleep returns promptly with an error that is both the
// context error (errors.Is) and the last observed APIError (errors.As).
// The client draws its jitter only once the attempt has returned its
// 503, so cancelling after the first draw lands in the sleep.
func TestCancelDuringBackoffReturnsContextError(t *testing.T) {
	h, _ := flakyHandler(1000, http.StatusServiceUnavailable, healthOK)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.RetryBase = time.Hour
	backingOff := make(chan struct{})
	var once sync.Once
	c.Jitter = func(time.Duration) time.Duration {
		once.Do(func() { close(backingOff) })
		return 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Healthz(ctx) }()
	<-backingOff
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want errors.Is(context.Canceled)", err)
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Errorf("err = %v, want joined 503 APIError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}
