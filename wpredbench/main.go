// Command wpredbench is the repository's benchmark. It runs one of four
// seeded workloads against the real code in this process — wpredd
// (serve.Server) and wpredrouter (router.Router) on loopback, or the
// paper's experiment runners — checks every output, and prints the
// end-to-end metrics (--trace 0) or, from a separate serial traced run,
// the per-layer metrics (--trace 1). The last line of standard output is
// one JSON result. README.md describes the workloads and metrics.
//
// Run it from the repository root:
//
//	bash wpredbench/run.sh --workload warm-wire --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"wpred/internal/obs"
	"wpred/internal/telemetry"
)

// A run sets the system up at least minSetups times and until minSetupTime
// has been spent setting up; setup_s is the median.
const (
	minSetups    = 5
	minSetupTime = 2 * time.Second
)

// moreSetups reports whether another set-up is due after the given ones.
func moreSetups(setups []float64) bool {
	total := 0.0
	for _, s := range setups {
		total += s
	}
	return len(setups) < minSetups || total < minSetupTime.Seconds()
}

var workloadNames = []string{"warm-wire", "warm-model", "fleet-churn", "offline-paper"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wpredbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "one of warm-wire, warm-model, fleet-churn, offline-paper")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 25, "how long the run measures")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a serial traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "wpredbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	rep := newReport()
	rep.notef("wpredbench workload=%s seed=%d seconds=%d trace=%d", *workload, *seed, *seconds, *trace)
	var err error
	switch *workload {
	case "offline-paper":
		err = runOffline(rep, *seed, *seconds, *trace == 1)
	case "warm-wire", "warm-model", "fleet-churn":
		var seq *sequence
		if seq, err = build(*workload, *seed, *seconds); err == nil {
			if *trace == 1 {
				err = traceServing(rep, seq, *seconds)
			} else {
				err = runServing(rep, seq, *seconds)
			}
		}
	default:
		fmt.Fprintf(stderr, "wpredbench: unknown workload %q (one of %v)\n", *workload, workloadNames)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "wpredbench:", err)
		return 1
	}
	set := endToEnd
	if *trace == 1 {
		set = perLayer
	}
	if err := rep.write(stdout, set); err != nil {
		fmt.Fprintln(stderr, "wpredbench:", err)
		return 1
	}
	return 0
}

func build(workload string, seed uint64, seconds int) (*sequence, error) {
	switch workload {
	case "warm-wire":
		return warmWire(seed)
	case "warm-model":
		return warmModel(seed)
	default:
		return fleetChurn(seed, seconds)
	}
}

// describe prints what the sequence is made of: the measured share of the
// property each workload is defined by.
func describe(rep *report, seq *sequence) (bodyKB, nnetShare float64) {
	var size, items, nnet float64
	for _, i := range seq.order {
		r := &seq.pool[i]
		size += float64(len(r.body))
		items += float64(r.items)
		nnet += float64(r.nnet)
	}
	bodyKB = size / float64(len(seq.order)) / 1024
	nnetShare = ratio(nnet, items)
	mode := fmt.Sprintf("closed loop on %d connection", seq.conns())
	if seq.rate > 0 {
		mode = fmt.Sprintf("open loop at %g requests/s through wpredrouter, %d backends", seq.rate, fleetBackends)
	}
	rep.notef("digest %s", seq.digest())
	rep.notef("%s; %d distinct requests, %d registry keys; mean body %.1f KB; NNet share of predictions %.3f",
		mode, len(seq.pool), len(seq.keys), bodyKB, nnetShare)
	return bodyKB, nnetShare
}

// warmupFor is the untimed closed-loop warm-up before measuring; the
// open-loop fleet-churn workload is measured from cold registries.
func warmupFor(seq *sequence) time.Duration {
	if seq.rate > 0 {
		return 0
	}
	return time.Second
}

// tally counts a phase's outcomes into the result line and reports the
// error rate.
func tally(rep *report, p phase, label string) (okMS []float64) {
	wrong, refused := 0, 0
	for _, o := range p.outs {
		switch {
		case o.ok:
			okMS = append(okMS, float64(o.lat.Nanoseconds())/1e6)
		case o.wrong:
			wrong++
		case o.status == 429 || o.status == 503:
			refused++
		}
	}
	attempted := len(p.outs) + p.unsent
	failed := attempted - len(okMS)
	rep.res.Attempted += attempted
	rep.res.Failed += failed
	rep.notef("  %-30s %14.6g %-5s (%s%d failed of %d attempted: %d wrong bodies, %d refused, %d unsent)",
		"error_rate", ratio(float64(failed), float64(attempted)), "ratio", label, failed, attempted, wrong, refused, p.unsent)
	if wrong > 0 {
		rep.fail("%d responses differ from the serial reference pass", wrong)
	}
	return okMS
}

func runServing(rep *report, seq *sequence, seconds int) error {
	describe(rep, seq)
	refs := referenceBodies(seq)

	var setups []float64
	var f *fleet
	for moreSetups(setups) {
		if f != nil {
			f.stop()
		}
		t := time.Now()
		var err error
		if f, err = startFleet(seq); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer f.stop()

	cl := newClient(seq.conns())
	defer cl.CloseIdleConnections()
	from := 0
	if w := warmupFor(seq); w > 0 {
		from = drive(cl, f.base, seq, refs, seq.conns(), 0, w, 0).next
	}
	p := drive(cl, f.base, seq, refs, seq.conns(), seq.rate, time.Duration(seconds)*time.Second, from)
	heap := heapInuseMB()

	rep.set("setup_s", median(setups), fmt.Sprintf("(median of %d set-ups: %s)", len(setups), fmtSeconds(setups)))
	okMS := tally(rep, p, "")
	rep.set("throughput_rps", float64(len(okMS))/p.elapsed.Seconds(),
		fmt.Sprintf("(%d correct responses in %.2f s)", len(okMS), p.elapsed.Seconds()))
	what := "from send"
	if seq.rate > 0 {
		what = "from intended send time"
	}
	rep.latencies(okMS, what)
	rep.set("heap_inuse_mb", heap, "(after a forced GC, servers up)")
	return nil
}

// traceServing is the traced run, in three equal phases: the workload's
// own load shape untraced (load-dependent counts), then one connection
// untraced, then one connection traced. The last two differ only in
// tracing, which gives trace.overhead_pct.
func traceServing(rep *report, seq *sequence, seconds int) error {
	bodyKB, nnetShare := describe(rep, seq)
	refs := referenceBodies(seq)
	f, err := startFleet(seq)
	if err != nil {
		return err
	}
	defer f.stop()
	third := time.Duration(seconds) * time.Second / 3

	// Phase A: the workload's own shape.
	cl := newClient(seq.conns())
	from := 0
	if w := warmupFor(seq); w > 0 {
		from = drive(cl, f.base, seq, refs, seq.conns(), 0, w, 0).next
	}
	c0 := snapshot()
	a := drive(cl, f.base, seq, refs, seq.conns(), seq.rate, third, from)
	c1 := snapshot()
	cl.CloseIdleConnections()
	tally(rep, a, "phase A: ")
	opsA := len(a.outs)
	setRuntimeLayers(rep, c0, c1, opsA)
	rep.set("serve.shed_rate", ratio(c0.delta(c1, "wpred_serve_rejected_total"), float64(opsA)), "(at the workload's own load)")
	rep.set("router.retries_per_request", ratio(c0.delta(c1, "wpred_router_retries_total"), float64(opsA)), "(at the workload's own load)")
	rep.set("router.exhausted", c0.delta(c1, "wpred_router_exhausted_total"), "(at the workload's own load)")
	var lags []float64
	for _, o := range a.outs {
		lags = append(lags, float64(o.lag.Nanoseconds())/1e6)
	}
	lag, beyond := 0.0, 0
	if seq.rate > 0 {
		lag, beyond = quantile(sortedCopy(lags), 0.99)
	}
	rep.set("load.gen_lag_p99_ms", lag, fmt.Sprintf("(open loop only; n=%d, %d above)", len(lags), beyond))

	// Phase B: one connection, untraced.
	serial := newClient(1)
	defer serial.CloseIdleConnections()
	b := drive(serial, f.base, seq, refs, 1, 0, third, a.next)
	tally(rep, b, "phase B: ")

	// Phase C: one connection, traced. Each request's spans are taken as
	// soon as it completes, so the buffer never fills.
	st := newSpanStats()
	reg0, c2 := f.registry(), snapshot()
	obs.ResetTrace()
	obs.SetTracing(true)
	c := phase{}
	t0 := time.Now()
	for i := b.next; time.Since(t0) < third; i++ {
		idx := seq.at(i)
		r := &seq.pool[idx]
		sp := obs.StartSpan("bench.request")
		o := send(serial, f.base, r, refs[idx])
		o.lat = sp.End()
		c.outs = append(c.outs, o)
		for _, doc := range r.docs {
			rsp := obs.StartSpan("bench.read_experiment")
			_, err := telemetry.ReadExperiment(bytes.NewReader(doc))
			rsp.End()
			if err != nil {
				rep.fail("decoding a target document: %v", err)
			}
		}
		st.ingest(obs.TakeTrace())
	}
	obs.SetTracing(false)
	reg1, c3 := f.registry(), snapshot()
	tally(rep, c, "phase C: ")
	opsC := len(c.outs)

	setSpanLayers(rep, st)
	setCounterLayers(rep, c2, c3, opsC)
	lookups := float64((reg1.Hits - reg0.Hits) + (reg1.Misses - reg0.Misses))
	hitRatio := ratio(float64(reg1.Hits-reg0.Hits), lookups)
	rep.set("serve.registry_hit_ratio", hitRatio, fmt.Sprintf("(%.0f registry lookups)", lookups))
	rep.set("serve.fits_per_request", ratio(float64(reg1.Fits-reg0.Fits), float64(opsC)), "")
	rep.set("serve.fit_ms", 1e3*ratio(c2.delta(c3, "wpred_serve_registry_fit_seconds_sum"), c2.delta(c3, "wpred_serve_registry_fit_seconds_count")), "(mean per cold fit)")
	rep.set("serve.evictions_per_request", ratio(float64(reg1.Evictions-reg0.Evictions), float64(opsC)), "")
	events := c0.delta(c3, "wpred_drift_events_total")
	rep.set("drift.events", events, "(must be 0)")
	if events != 0 {
		rep.fail("%v drift events on a stationary residual stream", events)
	}
	rep.set("load.body_kb_mean", bodyKB, "(over the sequence)")
	rep.set("load.nnet_share", nnetShare, "(of predictions, over the sequence)")
	// Serial throughput counts request time only, so the benchmark's own
	// decoding between traced requests is not charged to tracing.
	rpsB := float64(len(b.outs)) / busy(b.outs)
	rpsC := float64(opsC) / busy(c.outs)
	rep.set("trace.overhead_pct", 100*(1-rpsC/rpsB), fmt.Sprintf("(serial untraced %.1f/s, traced %.1f/s)", rpsB, rpsC))

	readMS, _ := st.mean("telemetry.read_experiment_ms")
	predictMS, _ := st.mean("core.predict_ms")
	scaleMS, _ := st.mean("core.scalemodel_ms")
	trainMS, _ := st.mean("core.train_ms")
	var holds bool
	var claim string
	switch seq.workload {
	case "warm-wire":
		holds, claim = readMS > predictMS, "telemetry.read_experiment_ms > core.predict_ms"
	case "warm-model":
		holds, claim = scaleMS > readMS, "core.scalemodel_ms > telemetry.read_experiment_ms"
	case "fleet-churn":
		holds, claim = hitRatio < 0.5 && trainMS > predictMS, "most predicts miss the registry and core.train_ms > core.predict_ms"
	}
	rep.set("bench.property_holds", b2f(holds), "("+claim+")")
	return nil
}

// busy is the summed latency of serial requests, in seconds.
func busy(outs []outcome) float64 {
	var d time.Duration
	for _, o := range outs {
		d += o.lat
	}
	return d.Seconds()
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
