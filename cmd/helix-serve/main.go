// Command helix-serve is the multi-tenant HELIX daemon: it accepts
// concurrent workflow submissions over HTTP/JSON and runs them against one
// shared tiered materialization store, so overlapping sub-DAGs from
// different tenants dedupe to a single computation (see docs/service.md).
//
// Usage:
//
//	helix-serve -addr :8090 -dir /var/lib/helix -budget 256000000
//	curl -s localhost:8090/v1/submit -d '{"tenant":"ann","app":"census"}'
//	curl -s localhost:8090/v1/status
//
// SIGINT/SIGTERM drain gracefully: admissions stop (503), in-flight runs
// get a grace period, the runtime history is flushed, then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	// All real work lives in run so its defers (temp-store cleanup) fire on
	// every exit path before the process status is decided.
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "helix-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address")
	dir := flag.String("dir", "", "shared store directory (default: a fresh temp dir)")
	budget := flag.Int64("budget", 0, "hot-tier budget in bytes (0 = unlimited)")
	spillBudget := flag.Int64("spill-budget", -1, "cold spill-tier budget in bytes (0 disables tiering, <0 unbudgeted)")
	workers := flag.Int("workers", 2, "workers per run")
	maxConcurrent := flag.Int("max-concurrent", 2, "concurrently executing runs across all tenants")
	tenantInflight := flag.Int("tenant-inflight", 1, "concurrently executing runs per tenant")
	tenantBudget := flag.Int64("tenant-budget", 0, "per-tenant materialization budget in bytes (0 = unlimited)")
	rows := flag.Int("rows", 2000, "default census training rows for submissions that omit rows")
	seed := flag.Int64("seed", 2018, "default dataset seed")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight runs")
	flag.Parse()

	base := *dir
	if base == "" {
		tmp, err := os.MkdirTemp("", "helix-serve-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		base = tmp
	}

	svc, err := serve.New(serve.Config{
		Dir:               base,
		HotBudgetBytes:    *budget,
		SpillBudgetBytes:  *spillBudget,
		Workers:           *workers,
		MaxConcurrent:     *maxConcurrent,
		TenantMaxInFlight: *tenantInflight,
		TenantBudgetBytes: *tenantBudget,
		DefaultRows:       *rows,
		DefaultSeed:       *seed,
	})
	if err != nil {
		return err
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("helix-serve listening on %s (store: %s)\n", *addr, base)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Println("helix-serve: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain the service first — admissions flip to 503, queued waiters are
	// rejected, in-flight runs finish or are canceled at the grace
	// deadline, the runtime history is flushed — so the HTTP shutdown
	// below finds its handlers already returning.
	if err := svc.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "helix-serve: drain:", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "helix-serve: http shutdown:", err)
	}
	fmt.Println("helix-serve: done")
	return nil
}
