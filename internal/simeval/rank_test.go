package simeval

import (
	"math"
	"slices"
	"sort"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/distance"
	"wpred/internal/fingerprint"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

// rankOracle is the ranking the pipeline computed before RankWorkloads:
// the full (R+T)² matrix over references followed by targets (the targets
// labeled with a sentinel workload so NearestWorkload skips them), the
// per-target per-workload means averaged over targets, and the workloads
// sorted by mean, ties broken by name.
func rankOracle(t *testing.T, refs, targets []Item, m distance.Metric) ([]string, map[string]float64) {
	t.Helper()
	items := append([]Item(nil), refs...)
	for _, it := range targets {
		it.Workload = "\x00target"
		items = append(items, it)
	}
	matrix, err := ComputeMatrix(items, m)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	for q := len(refs); q < len(items); q++ {
		_, d := matrix.NearestWorkload(q)
		for w, v := range d {
			sums[w] += v
			counts[w]++
		}
	}
	names := make([]string, 0, len(sums))
	for w := range sums {
		sums[w] /= float64(counts[w])
		names = append(names, w)
	}
	sort.Slice(names, func(a, b int) bool {
		if sums[names[a]] != sums[names[b]] {
			return sums[names[a]] < sums[names[b]]
		}
		return names[a] < names[b]
	})
	return names, sums
}

func simulateRankExp(t *testing.T, name string, sku telemetry.SKU, run int, src *telemetry.Source) *telemetry.Experiment {
	t.Helper()
	w, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	terms := 8
	if bench.Serial(name) {
		terms = 1
	}
	return simdb.Simulate(w, simdb.Config{SKU: sku, Terminals: terms, Run: run, DataGroup: run % 3, Ticks: 60}, src)
}

// TestRankWorkloadsMatchesMatrixOracle is the differential test for the
// pipeline's similarity stage: on simulated suites shaped like the
// pipeline's inputs (same-SKU references with multi-run and single-run
// targets, a plan-only target restricted to plan features, and an
// unprofiled target SKU that falls back to every reference), RankWorkloads
// must reproduce the matrix oracle's means bit-for-bit and its ranking
// exactly, for every metric under Hist-FP and Phase-FP, while evaluating
// only T×R pairs.
func TestRankWorkloadsMatchesMatrixOracle(t *testing.T) {
	src := telemetry.NewSource(21)
	small := telemetry.SKU{CPUs: 2, MemoryGB: 16}
	large := telemetry.SKU{CPUs: 8, MemoryGB: 64}
	unprofiled := telemetry.SKU{CPUs: 4, MemoryGB: 32}
	var sameSKU, allRefs []*telemetry.Experiment
	for _, name := range []string{bench.TPCCName, bench.TwitterName, bench.TPCHName} {
		for _, sku := range []telemetry.SKU{small, large} {
			for r := 0; r < 3; r++ {
				e := simulateRankExp(t, name, sku, r, src)
				allRefs = append(allRefs, e)
				if sku == small {
					sameSKU = append(sameSKU, e)
				}
			}
		}
	}
	var multi []*telemetry.Experiment
	for r := 0; r < 3; r++ {
		multi = append(multi, simulateRankExp(t, bench.YCSBName, small, r, src))
	}
	planOnly := *simulateRankExp(t, bench.YCSBName, small, 0, src)
	planOnly.Resources = telemetry.ResourceSeries{}
	var planFeatures []telemetry.Feature
	for _, f := range telemetry.AllFeatures() {
		if f.Kind() == telemetry.Plan {
			planFeatures = append(planFeatures, f)
		}
	}

	cases := []struct {
		name          string
		refs, targets []*telemetry.Experiment
		features      []telemetry.Feature
	}{
		{"multi-run", sameSKU, multi, nil},
		{"single-run", sameSKU, multi[:1], nil},
		{"plan-only", sameSKU, []*telemetry.Experiment{&planOnly}, planFeatures},
		{"unprofiled-sku", allRefs, []*telemetry.Experiment{
			simulateRankExp(t, bench.YCSBName, unprofiled, 0, src),
			simulateRankExp(t, bench.YCSBName, unprofiled, 1, src),
		}, nil},
	}
	metrics := append(distance.Norms(), distance.TimeSeriesMetrics()...)
	for _, tc := range cases {
		for _, rep := range []fingerprint.Representation{fingerprint.HistFP, fingerprint.PhaseFP} {
			b := &fingerprint.Builder{Rep: rep, Features: tc.features}
			all := append(append([]*telemetry.Experiment(nil), tc.refs...), tc.targets...)
			if err := b.Fit(all); err != nil {
				t.Fatal(err)
			}
			items := make([]Item, len(all))
			for i, e := range all {
				fp, err := b.Build(e)
				if err != nil {
					t.Fatal(err)
				}
				items[i] = Item{Workload: e.Workload, Run: e.Run, FP: fp}
			}
			refs, targets := items[:len(tc.refs)], items[len(tc.refs):]
			for _, m := range metrics {
				before := simPairsExact.Value()
				names, dists, err := RankWorkloads(refs, targets, m)
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", tc.name, rep, m.Name(), err)
				}
				if got, want := simPairsExact.Value()-before, uint64(len(refs)*len(targets)); got != want {
					t.Errorf("%s/%v/%s: counted %d exact pairs, want T×R = %d", tc.name, rep, m.Name(), got, want)
				}
				wantNames, wantDists := rankOracle(t, refs, targets, m)
				if !slices.Equal(names, wantNames) {
					t.Errorf("%s/%v/%s: ranking %v, oracle %v", tc.name, rep, m.Name(), names, wantNames)
				}
				if len(names) != 3 || len(dists) != len(wantDists) {
					t.Fatalf("%s/%v/%s: %d workloads ranked, oracle %d, want 3", tc.name, rep, m.Name(), len(dists), len(wantDists))
				}
				for w, want := range wantDists {
					if got, ok := dists[w]; !ok || math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s/%v/%s: mean distance to %s = %v, oracle %v", tc.name, rep, m.Name(), w, got, want)
					}
				}
			}
		}
	}
}

func TestRankWorkloadsNeedsReferencesAndTargets(t *testing.T) {
	refs := []Item{{Workload: "A", FP: fpOf(1)}}
	if _, _, err := RankWorkloads(nil, []Item{{FP: fpOf(0)}}, distance.L11{}); err == nil {
		t.Fatal("ranking without references must error")
	}
	if _, _, err := RankWorkloads(refs, nil, distance.L11{}); err == nil {
		t.Fatal("ranking without targets must error")
	}
}
