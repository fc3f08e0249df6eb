package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value; the result line carries exactly these
// two keys per metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec names a metric and its unit; endToEnd and perLayer are the metric
// sets BENCHMARK.json declares (TestBenchmarkJSONMatches keeps them equal).
type spec struct{ name, unit string }

var endToEnd = []spec{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"heap_inuse_mb", "MB"},
}

var perLayer = []spec{
	{"telemetry.read_experiment_ms", "ms"},
	{"telemetry.sanitize_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.batch_handler_ms", "ms"},
	{"serve.registry_hit_ratio", "ratio"},
	{"serve.fits_per_request", "count"},
	{"serve.fit_ms", "ms"},
	{"serve.evictions_per_request", "count"},
	{"serve.shed_rate", "ratio"},
	{"core.predict_ms", "ms"},
	{"core.similarity_ms", "ms"},
	{"core.scalemodel_ms", "ms"},
	{"core.train_ms", "ms"},
	{"core.featsel_ms", "ms"},
	{"simeval.pairs_per_op", "count"},
	{"simeval.paircache_hit_ratio", "ratio"},
	{"drift.observe_ms", "ms"},
	{"drift.events", "count"},
	{"router.overhead_ms", "ms"},
	{"router.retries_per_request", "count"},
	{"router.exhausted", "count"},
	{"parallel.queue_wait_ms", "ms"},
	{"parallel.tasks_per_op", "count"},
	{"mat.workspace_allocs_per_op", "count"},
	{"experiments.table3_s", "s"},
	{"experiments.table4_s", "s"},
	{"experiments.figure8_s", "s"},
	{"experiments.figure9_s", "s"},
	{"experiments.figure11_s", "s"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_per_1k_ops", "count"},
	{"load.body_kb_mean", "KB"},
	{"load.nnet_share", "ratio"},
	{"load.gen_lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.dropped_spans", "count"},
	{"trace.http_spans", "count"},
	{"bench.property_holds", "count"},
}

// report collects the human-readable lines and the result line.
type report struct {
	res   result
	lines []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// set records a metric; note (sample count, basis) goes on its line.
func (r *report) set(name string, v float64, note string) {
	unit := ""
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if s.name == name {
			unit = s.unit
		}
	}
	if unit == "" {
		panic("wpredbench: undeclared metric " + name)
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("  %-30s %14.6g %-5s %s", name, v, unit, note))
}

// fail marks the run incorrect and says why.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.notef("FAIL: "+format, args...)
}

// write prints the lines, then the result line restricted to the metric
// set of this mode, every metric of the set present.
func (r *report) write(w io.Writer, set []spec) error {
	out := r.res
	out.Metrics = map[string]metric{}
	for _, s := range set {
		m, ok := r.res.Metrics[s.name]
		if !ok {
			m = metric{Unit: s.unit}
		}
		out.Metrics[s.name] = m
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// quantile is the exact nearest-rank quantile of sorted samples, with the
// number of samples above it.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], len(sorted) - 1 - i
}

// latencies reports the median and p99 of the samples (ms), each with its
// sample count; a percentile with fewer than ten samples above it is
// flagged as under-sampled.
func (r *report) latencies(ms []float64, what string) {
	sort.Float64s(ms)
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p99_ms", 0.99}} {
		v, beyond := quantile(ms, q.q)
		note := fmt.Sprintf("(%s; n=%d, %d above)", what, len(ms), beyond)
		if beyond < 10 {
			note += " UNDER-SAMPLED: fewer than 10 samples above"
		}
		r.set(q.name, v, note)
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapInuseMB is the Go heap in use after a forced collection.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func fmtSeconds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
