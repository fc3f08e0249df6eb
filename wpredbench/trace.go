package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"wpred/internal/loadgen"
	"wpred/internal/obs"
)

// acc accumulates one per-layer duration.
type acc struct {
	sum float64
	n   int
}

// spanStats turns the spans of a traced run into per-layer times. Requests
// in a traced run never overlap, so the program's unlinked root spans
// (http.*, pipeline.*) nest by time interval; pipeline stages link to their
// pipeline span by parent id.
type spanStats struct {
	acc       map[string]*acc
	httpSpans int
	dropped   uint64
}

func newSpanStats() *spanStats { return &spanStats{acc: map[string]*acc{}} }

func (s *spanStats) add(name string, v float64) {
	a := s.acc[name]
	if a == nil {
		a = &acc{}
		s.acc[name] = a
	}
	a.sum += v
	a.n++
}

// mean is the average of the named duration and its sample count.
func (s *spanStats) mean(name string) (float64, int) {
	a := s.acc[name]
	if a == nil || a.n == 0 {
		return 0, 0
	}
	return a.sum / float64(a.n), a.n
}

func ms(sp obs.SpanRecord) float64 { return float64(sp.DurationNanos) / 1e6 }

func spanEnd(sp obs.SpanRecord) int64 { return sp.StartUnixNano + sp.DurationNanos }

// covered is how much of parent's interval the given spans cover (ms).
func covered(parent obs.SpanRecord, spans []obs.SpanRecord) float64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range spans {
		lo, hi := max(c.StartUnixNano, parent.StartUnixNano), min(spanEnd(c), spanEnd(parent))
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, reach int64
	for _, v := range ivs {
		if v.lo < reach {
			v.lo = reach
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			reach = v.hi
		}
	}
	return float64(total) / 1e6
}

// ingest takes the spans of one traced request (or one traced pass).
func (s *spanStats) ingest(spans []obs.SpanRecord, dropped uint64) {
	s.dropped += dropped
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	var pipes, backends []obs.SpanRecord
	var client *obs.SpanRecord
	routed := false
	for i, sp := range spans {
		byID[sp.ID] = sp
		switch {
		case sp.Name == "pipeline.predict":
			s.add("core.predict_ms", ms(sp))
			pipes = append(pipes, sp)
		case sp.Name == "pipeline.train":
			s.add("core.train_ms", ms(sp))
			pipes = append(pipes, sp)
		case sp.Name == "bench.request":
			client = &spans[i]
		case sp.Name == "bench.read_experiment":
			s.add("telemetry.read_experiment_ms", ms(sp))
		case strings.HasPrefix(sp.Name, "bench.experiment."):
			s.add("experiments."+strings.TrimPrefix(sp.Name, "bench.experiment.")+"_s", ms(sp)/1e3)
		case strings.HasPrefix(sp.Name, "http."):
			s.httpSpans++
			routed = routed || strings.HasPrefix(sp.Name, "http.route_")
			if sp.Name == "http.predict" || sp.Name == "http.predict_batch" {
				backends = append(backends, sp)
			}
			if sp.Name == "http.observe" {
				s.add("drift.observe_ms", ms(sp))
			}
		}
	}
	for _, sp := range spans {
		parent, ok := byID[sp.Parent]
		if sp.Parent == 0 || !ok {
			continue
		}
		switch parent.Name + "/" + sp.Name {
		case "pipeline.predict/sanitize":
			s.add("telemetry.sanitize_ms", ms(sp))
		case "pipeline.predict/similarity":
			s.add("core.similarity_ms", ms(sp))
		case "pipeline.predict/scalemodel":
			s.add("core.scalemodel_ms", ms(sp))
		case "pipeline.train/featsel":
			s.add("core.featsel_ms", ms(sp))
		}
	}
	backendMS := 0.0
	for _, b := range backends {
		backendMS += ms(b)
		if b.Name == "http.predict_batch" {
			s.add("serve.batch_handler_ms", ms(b))
			continue
		}
		s.add("serve.handler_ms", ms(b))
		// Handler self time: decode, validate, admission, registry lookup
		// and encode; pipeline training and prediction are excluded.
		s.add("serve.overhead_ms", ms(b)-covered(b, pipes))
	}
	if routed && client != nil && len(backends) > 0 {
		s.add("router.overhead_ms", ms(*client)-backendMS)
	}
}

// counters is a snapshot of the program's own counters plus the Go
// runtime's allocation counters.
type counters struct {
	m     map[string]float64
	alloc uint64
	numGC uint32
}

func snapshot() counters {
	var b strings.Builder
	_ = obs.Default().WritePrometheus(&b)
	m, _ := loadgen.ParsePrometheus(strings.NewReader(b.String()))
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return counters{m: m, alloc: st.TotalAlloc, numGC: st.NumGC}
}

// total sums every series of the named metric.
func (c counters) total(name string) float64 {
	sum := 0.0
	for k, v := range c.m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// delta is the change of the named metric from c to later.
func (c counters) delta(later counters, name string) float64 {
	return later.total(name) - c.total(name)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setCounterLayers reports the per-layer counts measured between before
// and after over ops operations.
func setCounterLayers(r *report, before, after counters, ops int) {
	n := float64(ops)
	r.set("simeval.pairs_per_op", ratio(before.delta(after, "wpred_simeval_pairs_total"), n), "")
	hits := before.delta(after, "wpred_paircache_hits_total")
	r.set("simeval.paircache_hit_ratio", ratio(hits, hits+before.delta(after, "wpred_paircache_misses_total")), "")
	r.set("parallel.queue_wait_ms", 1e3*ratio(before.delta(after, "wpred_parallel_queue_wait_seconds_sum"),
		before.delta(after, "wpred_parallel_queue_wait_seconds_count")), "(mean per task)")
	r.set("parallel.tasks_per_op", ratio(before.delta(after, "wpred_parallel_tasks_started_total"), n), "")
	r.set("mat.workspace_allocs_per_op", ratio(before.delta(after, "wpred_workspace_allocs_total"), n), "")
}

// setRuntimeLayers reports allocation and collection counts per operation.
func setRuntimeLayers(r *report, before, after counters, ops int) {
	r.set("runtime.alloc_kb_per_op", ratio(float64(after.alloc-before.alloc)/1024, float64(ops)), "(client and servers share the process)")
	r.set("runtime.gc_per_1k_ops", ratio(1000*float64(after.numGC-before.numGC), float64(ops)), "")
}

// setSpanLayers reports every span-derived mean with its sample count.
func setSpanLayers(r *report, s *spanStats) {
	for _, sp := range perLayer {
		if spanDerived[sp.name] {
			v, n := s.mean(sp.name)
			r.set(sp.name, v, spanNote(n))
		}
	}
	r.set("trace.dropped_spans", float64(s.dropped), "")
	r.set("trace.http_spans", float64(s.httpSpans), "")
	if s.dropped > 0 {
		r.fail("the trace buffer dropped %d spans", s.dropped)
	}
}

// spanDerived lists the per-layer times that come from spans; one a
// workload never exercises reads 0 with n=0.
var spanDerived = map[string]bool{
	"telemetry.read_experiment_ms": true, "telemetry.sanitize_ms": true,
	"serve.handler_ms": true, "serve.overhead_ms": true, "serve.batch_handler_ms": true,
	"core.predict_ms": true, "core.similarity_ms": true, "core.scalemodel_ms": true,
	"core.train_ms": true, "core.featsel_ms": true, "drift.observe_ms": true,
	"router.overhead_ms":   true,
	"experiments.table3_s": true, "experiments.table4_s": true, "experiments.figure8_s": true,
	"experiments.figure9_s": true, "experiments.figure11_s": true,
}

func spanNote(n int) string {
	if n == 0 {
		return "(mean; n=0: the layer does no work here)"
	}
	return fmt.Sprintf("(mean; n=%d)", n)
}
