package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infat/internal/machine"
)

// flakyHandler answers with failStatus for the first fail requests, then
// delegates to ok.
func flakyHandler(fail int, failStatus int, ok http.HandlerFunc) (http.HandlerFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(fail) {
			http.Error(w, `{"error":"try later"}`, failStatus)
			return
		}
		ok(w, r)
	}, &calls
}

func healthOK(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"status":"ok"}`)
}

// fastClient returns a client with negligible backoff so retry tests
// stay fast.
func fastClient(url string) *Client {
	c := NewClient(url)
	c.RetryBase = time.Microsecond
	return c
}

func TestClientRetriesTransientStatuses(t *testing.T) {
	for _, status := range []int{http.StatusServiceUnavailable, http.StatusTooManyRequests} {
		h, calls := flakyHandler(2, status, healthOK)
		ts := httptest.NewServer(h)
		c := fastClient(ts.URL)
		if err := c.Healthz(context.Background()); err != nil {
			t.Errorf("status %d: err = %v after retries", status, err)
		}
		if got := calls.Load(); got != 3 {
			t.Errorf("status %d: %d attempts, want 3", status, got)
		}
		ts.Close()
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	h, calls := flakyHandler(1000, http.StatusServiceUnavailable, healthOK)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := fastClient(ts.URL)
	c.MaxAttempts = 2
	err := c.Healthz(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 APIError", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("%d attempts, want 2", got)
	}
}

func TestClientNoRetry(t *testing.T) {
	h, calls := flakyHandler(1, http.StatusServiceUnavailable, healthOK)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := fastClient(ts.URL)
	c.NoRetry = true
	if err := c.Healthz(context.Background()); err == nil {
		t.Fatal("NoRetry client retried through the failure")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d attempts, want 1", got)
	}
}

// TestClientDoesNotRetryDefinitiveStatuses: 4xx (other than 429) and 504
// are answers, not congestion — 504 in particular may have side effects
// (the job ran), so blind replay is wrong.
func TestClientDoesNotRetryDefinitiveStatuses(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusGatewayTimeout} {
		h, calls := flakyHandler(1000, status, healthOK)
		ts := httptest.NewServer(h)
		c := fastClient(ts.URL)
		err := c.Healthz(context.Background())
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status {
			t.Errorf("err = %v, want %d APIError", err, status)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("status %d: %d attempts, want 1", status, got)
		}
		ts.Close()
	}
}

// flakyTransport fails the first n round trips at the connection level,
// then delegates to the default transport.
type flakyTransport struct {
	calls atomic.Int64
	fail  int64
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.calls.Add(1) <= f.fail {
		return nil, errors.New("simulated connection reset")
	}
	return http.DefaultTransport.RoundTrip(r)
}

func TestClientRetriesTransportErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(healthOK))
	defer ts.Close()
	tr := &flakyTransport{fail: 2}
	c := fastClient(ts.URL)
	c.HTTP = &http.Client{Transport: tr}
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("err = %v after transport retries", err)
	}
	if got := tr.calls.Load(); got != 3 {
		t.Errorf("%d round trips, want 3", got)
	}
}

// TestClientRespectsContextCancellation cancels during the first backoff
// sleep. The client draws its jitter only once the attempt has returned
// its 503, so cancelling from the first draw never cancels the request
// itself.
func TestClientRespectsContextCancellation(t *testing.T) {
	h, calls := flakyHandler(1000, http.StatusServiceUnavailable, healthOK)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.RetryBase = time.Hour // the cancel must interrupt the first backoff
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
		// The last real failure is reported, not the bare context error.
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("err = %v, want the 503 APIError observed before cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d attempts, want 1", got)
	}
}

func TestWaitReadyRetriesUntilUp(t *testing.T) {
	// Refused connections (no listener yet) are transient: WaitReady must
	// keep probing until the deadline, then name the last failure.
	c := NewClient("http://127.0.0.1:1") // reserved port: always refused
	start := time.Now()
	err := c.WaitReady(context.Background(), 150*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "not ready within") {
		t.Fatalf("err = %v, want not-ready error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("WaitReady blocked %v past its deadline", elapsed)
	}

	// A healthy server is ready immediately.
	ts := httptest.NewServer(http.HandlerFunc(healthOK))
	defer ts.Close()
	if err := NewClient(ts.URL).WaitReady(context.Background(), 2*time.Second); err != nil {
		t.Fatalf("WaitReady on live server: %v", err)
	}
}

// TestBackoffUsesInjectedJitter: the backoff schedule is fully
// determined once a Jitter source is installed — exponential doubling
// from RetryBase, capped, plus exactly what the source returns.
func TestBackoffUsesInjectedJitter(t *testing.T) {
	var maxes []time.Duration
	c := NewClient("http://unused")
	c.Jitter = func(max time.Duration) time.Duration {
		maxes = append(maxes, max)
		return max - 1 // the largest value a real source could draw
	}
	base := 100 * time.Millisecond
	var got []time.Duration
	for retry := 1; retry <= 6; retry++ {
		got = append(got, c.backoff(base, retry))
	}
	// Exponential delays before jitter: 100ms, 200ms, ..., capped at 2s.
	delays := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // capped at maxRetryDelay
	}
	for i, d := range delays {
		wantMax := d/4 + 1
		if maxes[i] != wantMax {
			t.Errorf("retry %d: jitter bound = %v, want %v", i+1, maxes[i], wantMax)
		}
		if want := d + wantMax - 1; got[i] != want {
			t.Errorf("backoff(retry=%d) = %v, want %v", i+1, got[i], want)
		}
	}
}

// TestSeededClientBackoffDeterministic: two clients seeded alike draw
// identical jitter sequences; a different seed diverges.
func TestSeededClientBackoffDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		c := NewClientSeeded("http://unused", seed)
		var ds []time.Duration
		for retry := 1; retry <= 8; retry++ {
			ds = append(ds, c.backoff(DefaultRetryBase, retry))
		}
		return ds
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 schedules diverge at retry %d: %v != %v", i+1, a[i], b[i])
		}
	}
	diff := schedule(43)
	same := true
	for i := range a {
		if a[i] != diff[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 8-step schedules")
	}
}

// TestDispatchRecoversWorkerPanic: a panicking job must cost its request
// a typed 500 — not the process — free its worker slot, and be counted.
func TestDispatchRecoversWorkerPanic(t *testing.T) {
	s := New(Config{Workers: 1})
	status, body, ok := s.dispatch(context.Background(), func() (int, []byte) {
		panic("injected simulator bug")
	})
	if !ok || status != http.StatusInternalServerError {
		t.Fatalf("dispatch = (%d, ok=%v), want 500", status, ok)
	}
	if !strings.Contains(string(body), "recovered panic: injected simulator bug") {
		t.Errorf("body does not name the panic: %s", body)
	}
	if got := s.metrics.admission["internal_panics"].Load(); got != 1 {
		t.Errorf("internal_panics = %d, want 1", got)
	}
	if got := s.snapshot().Admission["internal_panics"]; got != 1 {
		t.Errorf("snapshot internal_panics = %d, want 1", got)
	}
	// The slot is free again: a normal job still runs.
	status, body, ok = s.dispatch(context.Background(), func() (int, []byte) {
		return http.StatusOK, []byte("fine")
	})
	if !ok || status != http.StatusOK || string(body) != "fine" {
		t.Fatalf("post-panic dispatch = (%d, %q, ok=%v)", status, body, ok)
	}
}

func TestTrapInternalClassification(t *testing.T) {
	class, kind := classifyTrap(fmt.Errorf("run: %w", internalTrapForTest()))
	if class != trapClassInternal || kind != "internal" {
		t.Errorf("classifyTrap = (%q, %q), want (internal, internal)", class, kind)
	}
	if newMetrics().traps[class] == nil {
		t.Error("no trap counter for the internal class")
	}
}

// internalTrapForTest builds the error shape RunC produces for a
// recovered simulator panic.
func internalTrapForTest() error {
	var err error
	func() {
		defer machine.RecoverInternal(&err)
		panic("boom")
	}()
	return err
}
