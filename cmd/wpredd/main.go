// Command wpredd is the long-running prediction service: it loads (or
// simulates) a reference telemetry suite once at startup, pre-trains the
// default prediction pipeline into the model registry, and serves
// throughput predictions over a stdlib-only HTTP JSON API until SIGTERM.
//
// Usage:
//
//	wpredd -addr :8080
//	wpredd -addr :8080 -telemetry refs.json -seed 7
//	wpredd -addr :8080 -warm "RFE LogReg|L2,1|SVM;Variance|Fro|Regression"
//	wpredd -addr :8080 -snapshot-dir /var/lib/wpredd/snapshots
//
// Endpoints:
//
//	POST /v1/predict        one prediction (see README for the request shape)
//	POST /v1/predict/batch  micro-batched predictions, 429 when the queue is full
//	POST /v1/observe        feedback observations for streaming drift detection;
//	                        confirmed non-cyclic drift refits the key in the background
//	GET  /healthz           process liveness, with snapshot and drift status
//	GET  /readyz            503 until warmup completes, 200 after
//
// Shutdown: SIGTERM/SIGINT flips /readyz to 503 and drains in-flight
// requests for up to -drain-timeout before exiting; with -snapshot-dir
// the drain also persists every trained pipeline, so the next start
// serves byte-identical predictions without refitting.
//
// Observability: -metrics-addr ADDR serves Prometheus metrics on /metrics
// and live pprof profiles under /debug/pprof/ on a private mux;
// -trace-out FILE dumps tracing spans as JSON on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wpred"
	"wpred/internal/drift"
	"wpred/internal/obs"
	"wpred/internal/serve"
	"wpred/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable context and streams: tests drive the full
// daemon lifecycle (startup, warmup, serving, graceful drain) by
// cancelling ctx instead of delivering a real signal.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wpredd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "HTTP listen address for the prediction API")
		telFile      = fs.String("telemetry", "", "load the reference suite from a JSON stream (wlgen/library format) instead of simulating")
		seed         = fs.Uint64("seed", 42, "randomness seed for the simulated suite and every model fit")
		skus         = fs.String("skus", "2,4,8,16", "comma-separated CPU counts to profile the simulated references on (memory scales 8 GB/CPU)")
		terminals    = fs.Int("terminals", 8, "concurrent terminals for the simulated references")
		runs         = fs.Int("runs", 3, "simulated runs per workload × SKU")
		registryCap  = fs.Int("registry-cap", 8, "max trained pipelines resident in the model registry (LRU beyond)")
		queueSlots   = fs.Int("queue", 64, "admission-queue capacity in prediction items; excess load gets 429")
		maxBody      = fs.Int64("max-body", 8<<20, "request-body cap in bytes; larger bodies get 413")
		warm         = fs.String("warm", "", `extra registry keys to pre-train, semicolon-separated "selection|metric|model" triples (empty fields take the defaults; metric names may contain commas)`)
		snapshotDir  = fs.String("snapshot-dir", "", "persist trained pipelines here and warm-restart from them; share the directory across replicas to train each key once fleet-wide")
		driftWindow  = fs.Int("drift-window", 0, "observation window per key for /v1/observe drift detection (0 = default 128)")
		driftHazard  = fs.Float64("drift-hazard", 0, "prior regime-change probability per observation for the drift detector (0 = default 1/100)")
		driftSeason  = fs.Int("drift-season", 0, "seasonal period in observations for cyclic-drift classification (0 = default 24, negative disables)")
		drainTimeout = fs.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests to finish")
		metricsAddr  = fs.String("metrics-addr", "", "serve Prometheus metrics (/metrics) and pprof profiles (/debug/pprof/) on this address, e.g. :9090")
		traceOut     = fs.String("trace-out", "", "write stage-tracing spans as JSON to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	warmKeys, err := parseWarmKeys(*warm)
	if err != nil {
		fmt.Fprintln(stderr, "wpredd:", err)
		return 2
	}

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintln(stderr, "wpredd:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "wpredd: debug endpoint on http://%s (metrics: /metrics, pprof: /debug/pprof/)\n", srv.Addr)
	}
	if *traceOut != "" {
		obs.SetTracing(true)
		obs.ResetTrace()
		defer func() {
			if err := obs.WriteTraceFile(*traceOut); err != nil {
				fmt.Fprintln(stderr, "wpredd: trace-out:", err)
			}
		}()
	}

	refs, err := loadRefs(*telFile, *skus, *terminals, *runs, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "wpredd:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wpredd: reference suite loaded: %d experiments\n", len(refs))

	srv := serve.New(serve.Config{
		Refs:         refs,
		Seed:         *seed,
		RegistryCap:  *registryCap,
		QueueSlots:   *queueSlots,
		MaxBodyBytes: *maxBody,
		SnapshotDir:  *snapshotDir,
		Drift: drift.Config{
			Window: *driftWindow,
			Hazard: *driftHazard,
			Season: *driftSeason,
		},
	})
	bound, err := srv.ListenAndServe(*addr)
	if err != nil {
		fmt.Fprintln(stderr, "wpredd:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wpredd: listening on %s (not ready until warmup completes)\n", bound)

	if *snapshotDir != "" {
		restored, skipped, err := srv.RestoreSnapshots()
		if err != nil {
			fmt.Fprintln(stderr, "wpredd:", err)
			return 1
		}
		fmt.Fprintf(stderr, "wpredd: restored %d snapshot(s) from %s, skipped %d\n", restored, *snapshotDir, skipped)
	}

	t0 := time.Now()
	if err := srv.Warmup(warmKeys...); err != nil {
		fmt.Fprintln(stderr, "wpredd:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wpredd: warmup trained %d pipeline(s) in %s; ready\n",
		srv.RegistryStats().Fits, time.Since(t0).Round(time.Millisecond))

	<-ctx.Done()
	fmt.Fprintf(stderr, "wpredd: shutdown signal received; draining for up to %s\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "wpredd: drain incomplete:", err)
		return 1
	}
	st := srv.RegistryStats()
	fmt.Fprintf(stderr, "wpredd: drained cleanly (registry: %d fits, %d hits, %d misses, %d evictions)\n",
		st.Fits, st.Hits, st.Misses, st.Evictions)
	return 0
}

// parseWarmKeys parses the -warm flag: semicolon-separated
// "selection|metric|model" triples (semicolons, because metric display
// names like "L2,1" contain commas); empty components default.
func parseWarmKeys(s string) ([]serve.Key, error) {
	if s == "" {
		return nil, nil
	}
	var keys []serve.Key
	for _, triple := range strings.Split(s, ";") {
		parts := strings.Split(triple, "|")
		if len(parts) != 3 {
			return nil, fmt.Errorf(`-warm: %q is not a "selection|metric|model" triple`, triple)
		}
		keys = append(keys, serve.Key{
			Selection: strings.TrimSpace(parts[0]),
			Metric:    strings.TrimSpace(parts[1]),
			Model:     strings.TrimSpace(parts[2]),
		})
	}
	return keys, nil
}

// loadRefs builds the server's reference suite: externally collected
// telemetry when -telemetry is given, otherwise a simulated profile of
// every standard benchmark across the requested SKUs.
func loadRefs(telFile, skus string, terminals, runs int, seed uint64) ([]*telemetry.Experiment, error) {
	if telFile != "" {
		f, err := os.Open(telFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		refs, err := telemetry.ReadExperiments(f)
		if err != nil {
			return nil, err
		}
		if len(refs) == 0 {
			return nil, fmt.Errorf("no experiments in %s", telFile)
		}
		return refs, nil
	}
	var skuList []wpred.SKU
	for _, tok := range strings.Split(skus, ",") {
		cpus, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || cpus < 1 {
			return nil, fmt.Errorf("-skus: invalid CPU count %q", tok)
		}
		skuList = append(skuList, wpred.SKU{CPUs: cpus, MemoryGB: 8 * cpus})
	}
	if runs < 1 || terminals < 1 {
		return nil, fmt.Errorf("-runs and -terminals must be >= 1")
	}
	src := wpred.NewSource(seed)
	return wpred.GenerateSuite(wpred.ReferenceWorkloads(), skuList, []int{terminals}, runs, src), nil
}
