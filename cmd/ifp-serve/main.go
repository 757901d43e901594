// Command ifp-serve is the analysis-as-a-service daemon: it serves the
// In-Fat Pointer simulator over HTTP/JSON, turning the check-a-program
// pipeline into a long-running, admission-controlled service. Submit a
// MiniC program and get back the spatial-safety verdict, trap
// classification, printed output, and machine counters; run single
// Juliet cases; stream whole evaluation campaigns, or single cells of
// them, from /v1/batch; scrape /healthz and /metrics.
//
// Usage:
//
//	ifp-serve [-addr :8080] [-workers N] [-cache N] [-memo-dir DIR]
//	          [-fuel CYCLES] [-max-fuel CYCLES] [-timeout D]
//	          [-max-source BYTES] [-pprof ADDR] [-selftest]
//
// Every run executes under a cycle fuel budget, so a submitted infinite
// loop traps (class "fuel") instead of pinning a worker; request-chosen
// budgets are clamped to -max-fuel. SIGINT/SIGTERM
// trigger a graceful shutdown: the listener closes, in-flight requests
// drain (bounded by -timeout and the fuel budget), then the process
// exits. -selftest starts the server on a loopback port, drives every
// endpoint through the bundled client, and exits non-zero on any
// failure — the CI smoke test.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for the -pprof listener
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"infat/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = number of CPUs)")
	cacheN := flag.Int("cache", server.DefaultCacheEntries, "memo store capacity (entries; run results and campaign cells share it)")
	memoDir := flag.String("memo-dir", "", "load the memo snapshot from DIR at startup and save it on graceful shutdown; empty keeps the store memory-only")
	fuel := flag.Uint64("fuel", server.DefaultFuel, "default per-run cycle budget")
	maxFuel := flag.Uint64("max-fuel", server.DefaultMaxFuel, "cap on request-chosen cycle budgets")
	timeout := flag.Duration("timeout", server.DefaultRequestTimeout, "per-request deadline")
	maxSource := flag.Int("max-source", server.DefaultMaxSourceBytes, "max submitted source size (bytes)")
	selftest := flag.Bool("selftest", false, "start on a loopback port, exercise every endpoint, exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	flag.Parse()

	// The pprof endpoint lives on its own listener, never the service
	// address: profiling stays an operator decision and is not reachable
	// through whatever exposes the API port. The debug mux is the
	// net/http/pprof default set (/debug/pprof/profile, /heap, /allocs,
	// /goroutine, ...), so future perf PRs profile the live service
	// under real traffic instead of guessing.
	if *pprofAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "ifp-serve: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ifp-serve: pprof:", err)
			}
		}()
	}

	cfg := server.Config{
		Workers:        *workers,
		RequestTimeout: *timeout,
		CacheEntries:   *cacheN,
		MemoDir:        *memoDir,
		Fuel:           *fuel,
		MaxFuel:        *maxFuel,
		MaxSourceBytes: *maxSource,
	}
	if *selftest {
		if err := runSelftest(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "ifp-serve: selftest FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("ifp-serve: selftest ok")
		return
	}

	app := server.New(cfg)
	srv := &http.Server{Addr: *addr, Handler: app}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ifp-serve: listening on %s (workers=%d, fuel=%d, timeout=%v)\n",
		*addr, app.Config().Workers, *fuel, *timeout)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "ifp-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, drain in-flight requests. The
	// drain is bounded: every request has a deadline and every run a
	// fuel budget.
	fmt.Fprintln(os.Stderr, "ifp-serve: signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *timeout+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "ifp-serve: forced shutdown:", err)
		os.Exit(1)
	}
	// Persist the memo store after the drain, so the snapshot includes
	// everything the final requests computed.
	if *memoDir != "" {
		if err := app.SaveMemo(); err != nil {
			fmt.Fprintln(os.Stderr, "ifp-serve: memo snapshot:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ifp-serve: memo snapshot saved to %s\n", *memoDir)
	}
}

// runSelftest boots the service on a loopback listener and drives every
// endpoint through the client, checking the contract end to end: clean
// runs, cache hits, spatial and fuel trap classification, a Juliet
// case, a one-cell campaign and its memo hit, and the metrics counters
// all of that should have moved.
func runSelftest(cfg server.Config) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: server.New(cfg)}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := server.NewClient("http://" + ln.Addr().String())
	if err := c.WaitReady(ctx, 5*time.Second); err != nil {
		return err
	}

	step := func(name string, fn func() error) error {
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println("ifp-serve: selftest:", name, "ok")
		return nil
	}

	const good = "int main() { print(42); return 7; }"
	steps := []struct {
		name string
		fn   func() error
	}{
		{"run clean program", func() error {
			resp, cached, err := c.Run(ctx, server.RunRequest{Source: good, Mode: "subheap"})
			if err != nil {
				return err
			}
			if cached || resp.Trap != nil || resp.Exit != 7 ||
				len(resp.Output) != 1 || resp.Output[0] != 42 || resp.Counters.Instrs == 0 {
				return fmt.Errorf("unexpected response %+v (cached=%v)", resp, cached)
			}
			return nil
		}},
		{"identical submission served from cache", func() error {
			resp, cached, err := c.Run(ctx, server.RunRequest{Source: good, Mode: "subheap"})
			if err != nil {
				return err
			}
			if !cached || resp.Exit != 7 {
				return fmt.Errorf("expected cache hit, got cached=%v exit=%d", cached, resp.Exit)
			}
			return nil
		}},
		{"overflow classified as spatial trap", func() error {
			src := `int main() {
				char buf[8];
				long i;
				for (i = 0; i <= 8; i = i + 1) { buf[i] = 'A'; }
				return 0;
			}`
			resp, _, err := c.Run(ctx, server.RunRequest{Source: src, Mode: "subheap"})
			if err != nil {
				return err
			}
			if resp.Trap == nil || resp.Trap.Class != "spatial" {
				return fmt.Errorf("expected spatial trap, got %+v", resp.Trap)
			}
			return nil
		}},
		{"infinite loop terminated by fuel budget", func() error {
			resp, _, err := c.Run(ctx, server.RunRequest{
				Source: "int main() { while (1) { } return 0; }",
				Fuel:   1_000_000,
			})
			if err != nil {
				return err
			}
			if resp.Trap == nil || resp.Trap.Class != "fuel" {
				return fmt.Errorf("expected fuel trap, got %+v", resp.Trap)
			}
			return nil
		}},
		{"juliet case detected", func() error {
			names, err := c.JulietCases(ctx)
			if err != nil {
				return err
			}
			if len(names) == 0 {
				return errors.New("empty case list")
			}
			resp, err := c.Juliet(ctx, server.JulietRequest{Case: "CWE121_stack_direct_bad", Mode: "subheap"})
			if err != nil {
				return err
			}
			if resp.Verdict != "pass" {
				return fmt.Errorf("verdict %q detail %q", resp.Verdict, resp.Detail)
			}
			return nil
		}},
		{"workload cell served, then replayed from the memo store", func() error {
			// treeadd under subheap: cell 1 of treeadd's report campaign,
			// asked for twice. X-Ifp-Memo counts the stream's warm cells.
			req := server.BatchRequest{Workloads: []string{"treeadd"}, Cells: []int{1}}
			for warm := 0; warm < 2; warm++ {
				var memoState string
				var cell server.BatchCell
				if err := c.StreamNDJSON(ctx, req, func(h http.Header) {
					memoState = h.Get(server.MemoHeader)
				}, func(line []byte) error {
					var l server.BatchCell
					if err := json.Unmarshal(line, &l); err != nil || l.Result == nil {
						return err // the trailer carries no result
					}
					cell = l
					return nil
				}); err != nil {
					return err
				}
				if cell.Config != "subheap" || cell.Result == nil || cell.Result.Perf == nil || cell.Result.Perf.Counters.Instrs == 0 {
					return fmt.Errorf("unexpected cell %+v", cell)
				}
				if memoState != strconv.Itoa(warm) {
					return fmt.Errorf("request %d: %s = %q, want %d", warm+1, server.MemoHeader, memoState, warm)
				}
			}
			return nil
		}},
		{"metrics reflect the run", func() error {
			m, err := c.Metrics(ctx)
			if err != nil {
				return err
			}
			switch {
			case m.Requests["run"] < 4:
				return fmt.Errorf("run requests = %d, want >= 4", m.Requests["run"])
			case m.Cache["hits"] < 1 || m.Cache["misses"] < 3:
				return fmt.Errorf("cache counters %v", m.Cache)
			case m.Memo["entries"] < 1 || m.Memo["bytes"] == 0:
				return fmt.Errorf("memo counters %v", m.Memo)
			case m.Traps["spatial"] < 1 || m.Traps["fuel"] < 1 || m.Traps["none"] < 1:
				return fmt.Errorf("trap counters %v", m.Traps)
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
