// Command ifp-shard is the scale-out front tier: one endpoint serving
// the full ifp-serve API over a fleet of backend ifp-serve processes.
// Requests are consistently hashed across the backends — /v1/run by
// sha256(source), the batch campaigns cell-by-cell by stable plan key —
// so every backend's interner and result cache stay hot on a stable
// subset of the key space. Backends are health-checked; a lost backend
// is drained (its batch cells reassigned to survivors) and rejoins on
// recovery. GET /metrics aggregates the whole fleet.
//
// Usage:
//
//	ifp-shard -backends http://h1:8080,http://h2:8080 [-addr :8090]
//	          [-health-interval D] [-down-after N] [-wait D]
//	          [-selftest] [-netchaos]
//
// -wait blocks startup until every backend answers /healthz (0 skips
// the wait; backends that are still down merely start drained).
// SIGINT/SIGTERM drain in-flight requests and exit. -netchaos runs the
// full network-fault campaign: in-process backends behind deterministic
// fault-injecting proxies (latency, refused/reset connections,
// blackholes, truncation, corruption, duplication, slowloris), gating on
// zero lost, zero duplicated, zero corrupt-accepted cells and
// byte-identical reports, and on its fault-free control arm every cell
// computed exactly once, replays served wholly from the backends' memo
// stores, routed runs repeating as cache hits and every backend in the
// fleet metrics — the CI resilience gate. -selftest runs the same
// campaign's control arm and refused-connection arm at one seed, in a
// few seconds, and exits non-zero on any failure — the CI smoke test.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"infat/internal/netchaos"
	"infat/internal/server"
	"infat/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "comma-separated ifp-serve base URLs (required unless -selftest or -netchaos)")
	healthInterval := flag.Duration("health-interval", shard.DefaultHealthInterval, "backend health probe period")
	downAfter := flag.Int("down-after", shard.DefaultDownAfter, "consecutive failed probes or requests before a backend is drained")
	wait := flag.Duration("wait", 0, "wait for every backend to be healthy before serving (0 = don't wait)")
	selftest := flag.Bool("selftest", false, "run the network-fault campaign's control and refused-connection arms at one seed against an in-process fleet, verify, exit")
	netchaosFlag := flag.Bool("netchaos", false, "run the full network-fault campaign grid against an in-process faulted fleet, verify self-healing, exit")
	flag.Parse()

	if *selftest || *netchaosFlag {
		name, faults, seeds := "netchaos", []netchaos.Fault(nil), []uint64(nil)
		if *selftest {
			// The control arm gates the healthy fleet, the refuse arm failover.
			name, faults, seeds = "selftest", []netchaos.Fault{netchaos.FaultNone, netchaos.FaultRefuse}, []uint64{1}
		}
		if err := runNetchaos(name, faults, seeds); err != nil {
			fmt.Fprintf(os.Stderr, "ifp-shard: %s FAILED: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("ifp-shard: %s ok\n", name)
		return
	}

	urls := splitBackends(*backends)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "ifp-shard: -backends is required")
		os.Exit(2)
	}
	if *wait > 0 {
		for _, u := range urls {
			if err := server.NewClient(u).WaitReady(context.Background(), *wait); err != nil {
				fmt.Fprintln(os.Stderr, "ifp-shard:", err)
				os.Exit(1)
			}
		}
	}
	front, err := shard.New(shard.Config{
		Backends:       urls,
		HealthInterval: *healthInterval,
		DownAfter:      *downAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ifp-shard:", err)
		os.Exit(1)
	}
	defer front.Close()

	srv := &http.Server{Addr: *addr, Handler: front}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ifp-shard: listening on %s over %d backends\n", *addr, len(urls))

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "ifp-shard:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "ifp-shard: signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), server.DefaultBatchTimeout+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "ifp-shard: forced shutdown:", err)
		os.Exit(1)
	}
}

func splitBackends(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	return urls
}
