package core

import (
	"testing"

	"wpred/internal/bench"
	"wpred/internal/obs"
	"wpred/internal/scalemodel"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

// simulateQuick runs a short simulated experiment for pipeline tests.
func simulateQuick(w *simdb.Workload, sku telemetry.SKU, terms, run int, src *telemetry.Source) *telemetry.Experiment {
	return simdb.Simulate(w, simdb.Config{
		SKU: sku, Terminals: terms, Run: run, DataGroup: run % 3, Ticks: 60,
	}, src)
}

func trainedPipeline(t *testing.T) (*Pipeline, []*telemetry.Experiment, telemetry.SKU, telemetry.SKU) {
	t.Helper()
	src := telemetry.NewSource(12)
	small := telemetry.SKU{CPUs: 2, MemoryGB: 16}
	large := telemetry.SKU{CPUs: 8, MemoryGB: 64}
	var refs []*telemetry.Experiment
	for _, name := range []string{bench.TPCCName, bench.TwitterName, bench.TPCHName} {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		terms := 8
		if bench.Serial(name) {
			terms = 1
		}
		for _, sku := range []telemetry.SKU{small, large} {
			for r := 0; r < 3; r++ {
				refs = append(refs, simulateQuick(w, sku, terms, r, src))
			}
		}
	}
	p := New(Config{Seed: 12, Subsamples: 5})
	if err := p.Train(refs); err != nil {
		t.Fatal(err)
	}
	return p, refs, small, large
}

func TestPipelineTrainSelectsFeatures(t *testing.T) {
	p, _, _, _ := trainedPipeline(t)
	feats := p.SelectedFeatures()
	if len(feats) != 7 {
		t.Fatalf("selected %d features, want 7", len(feats))
	}
	seen := map[telemetry.Feature]bool{}
	for _, f := range feats {
		if seen[f] {
			t.Fatalf("duplicate selected feature %v", f)
		}
		seen[f] = true
	}
}

func TestPipelinePredictEndToEnd(t *testing.T) {
	p, _, small, large := trainedPipeline(t)
	src := telemetry.NewSource(13)
	ycsb, _ := bench.ByName(bench.YCSBName)
	var target []*telemetry.Experiment
	for r := 0; r < 3; r++ {
		target = append(target, simulateQuick(ycsb, small, 8, r, src))
	}
	pred, _, err := p.PredictWithReport(target, large)
	if err != nil {
		t.Fatal(err)
	}
	if pred.NearestReference == "" {
		t.Fatal("no nearest reference")
	}
	if pred.PredictedThroughput <= pred.ObservedThroughput {
		t.Fatalf("scaling 2→8 CPUs must predict higher throughput (%v → %v)",
			pred.ObservedThroughput, pred.PredictedThroughput)
	}
	if pred.ScalingFactor < 1 || pred.ScalingFactor > 5 {
		t.Fatalf("scaling factor %v implausible", pred.ScalingFactor)
	}
	if len(pred.Distances) != 3 {
		t.Fatalf("distances for %d references, want 3", len(pred.Distances))
	}
	if pred.FromSKU != small || pred.ToSKU != large {
		t.Fatal("SKUs not recorded")
	}
	if !(pred.PredictedLo <= pred.PredictedThroughput && pred.PredictedThroughput <= pred.PredictedHi) {
		t.Fatalf("interval (%v, %v, %v) malformed",
			pred.PredictedLo, pred.PredictedThroughput, pred.PredictedHi)
	}
	if pred.PredictedLo == pred.PredictedHi {
		t.Fatal("interval should be non-degenerate when both SKUs are profiled")
	}
	// Actual throughput should be within a factor 2 of the prediction.
	actual := simulateQuick(ycsb, large, 8, 0, src).Throughput
	ratio := pred.PredictedThroughput / actual
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("prediction %v vs actual %v off by >2x", pred.PredictedThroughput, actual)
	}
}

func TestPipelineSingleContext(t *testing.T) {
	src := telemetry.NewSource(14)
	small := telemetry.SKU{CPUs: 2, MemoryGB: 16}
	large := telemetry.SKU{CPUs: 8, MemoryGB: 64}
	var refs []*telemetry.Experiment
	w, _ := bench.ByName(bench.TPCCName)
	for _, sku := range []telemetry.SKU{small, large} {
		for r := 0; r < 3; r++ {
			refs = append(refs, simulateQuick(w, sku, 8, r, src))
		}
	}
	p := New(Config{Seed: 14, Subsamples: 5, Context: scalemodel.Single})
	if err := p.Train(refs); err != nil {
		t.Fatal(err)
	}
	ycsb, _ := bench.ByName(bench.YCSBName)
	target := []*telemetry.Experiment{simulateQuick(ycsb, small, 8, 0, src)}
	pred, _, err := p.PredictWithReport(target, large)
	if err != nil {
		t.Fatal(err)
	}
	if pred.PredictedThroughput <= 0 {
		t.Fatalf("single-context prediction = %v", pred.PredictedThroughput)
	}
}

func TestPipelineErrors(t *testing.T) {
	p := New(Config{})
	if err := p.Train(nil); err == nil {
		t.Fatal("training without references must error")
	}
	if _, _, err := p.PredictWithReport(nil, telemetry.SKU{CPUs: 8}); err == nil {
		t.Fatal("predicting untrained must error")
	}

	p2, _, small, large := trainedPipeline(t)
	if _, _, err := p2.PredictWithReport(nil, large); err == nil {
		t.Fatal("empty target must error")
	}
	// Targets spanning SKUs must be rejected.
	src := telemetry.NewSource(15)
	ycsb, _ := bench.ByName(bench.YCSBName)
	mixed := []*telemetry.Experiment{
		simulateQuick(ycsb, small, 8, 0, src),
		simulateQuick(ycsb, large, 8, 0, src),
	}
	if _, _, err := p2.PredictWithReport(mixed, large); err == nil {
		t.Fatal("mixed-SKU target must error")
	}
}

// TestPipelineTiedReferencesRankByName duplicates the TPC-C references
// under a second name, so the two workloads tie at every distance, and
// requires every prediction to pick the same one: ties in the reference
// ranking break by name, never by map iteration order.
func TestPipelineTiedReferencesRankByName(t *testing.T) {
	_, refs, small, large := trainedPipeline(t)
	const twin = bench.TPCCName + " (copy)"
	for _, e := range refs {
		if e.Workload == bench.TPCCName {
			c := *e
			c.Workload = twin
			refs = append(refs, &c)
		}
	}
	p := New(Config{Seed: 12, Subsamples: 5})
	if err := p.Train(refs); err != nil {
		t.Fatal(err)
	}
	tpcc, _ := bench.ByName(bench.TPCCName)
	target := []*telemetry.Experiment{simulateQuick(tpcc, small, 8, 0, telemetry.NewSource(16))}
	for i := 0; i < 50; i++ {
		pred, _, err := p.PredictWithReport(target, large)
		if err != nil {
			t.Fatal(err)
		}
		if d, dt := pred.Distances[bench.TPCCName], pred.Distances[twin]; d != dt {
			t.Fatalf("duplicated references must tie: %v vs %v", d, dt)
		}
		if pred.NearestReference != bench.TPCCName {
			t.Fatalf("call %d: nearest reference %q, want %q (ties break by name)", i, pred.NearestReference, bench.TPCCName)
		}
	}
}

// TestPredictCountsTargetReferencePairs checks that one prediction
// evaluates exactly T×R distances, R being the same-SKU reference count,
// and counts them in wpred_simeval_pairs_total{outcome="exact"}.
func TestPredictCountsTargetReferencePairs(t *testing.T) {
	p, refs, small, large := trainedPipeline(t)
	sameSKU := 0
	for _, e := range refs {
		if e.SKU == small {
			sameSKU++
		}
	}
	exact := obs.GetCounter("wpred_simeval_pairs_total",
		"Similarity-stage pair evaluations by outcome.", obs.Labels{"outcome": "exact"})
	src := telemetry.NewSource(17)
	ycsb, _ := bench.ByName(bench.YCSBName)
	var target []*telemetry.Experiment
	for r := 0; r < 3; r++ {
		target = append(target, simulateQuick(ycsb, small, 8, r, src))
	}
	for _, n := range []int{1, 3} {
		before := exact.Value()
		if _, _, err := p.PredictWithReport(target[:n], large); err != nil {
			t.Fatal(err)
		}
		if got, want := exact.Value()-before, uint64(n*sameSKU); got != want {
			t.Fatalf("%d targets × %d references: counted %d exact pairs, want %d", n, sameSKU, got, want)
		}
	}
}
