package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"wpred/internal/obs"
)

// digests builds every workload's inputs at a seed and returns their
// digests, keyed by workload.
func digests(t *testing.T, seed uint64) map[string]string {
	t.Helper()
	out := map[string]string{"offline-paper": offlinePaper(seed).digest}
	for _, w := range workloadNames[:3] {
		seq, err := build(w, seed, 20)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		out[w] = seq.digest()
	}
	return out
}

func TestSameSeedSameDigest(t *testing.T) {
	first := digests(t, 7)
	// Generation must not read the clock: a later build at the same
	// seed offers byte-identical traffic.
	time.Sleep(20 * time.Millisecond)
	second := digests(t, 7)
	for w, d := range first {
		if second[w] != d {
			t.Errorf("%s: seed 7 gave digest %s, then %s", w, d, second[w])
		}
	}
}

func TestDifferentSeedDifferentDigest(t *testing.T) {
	a, b := digests(t, 1), digests(t, 2)
	for w, d := range a {
		if b[w] == d {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w, d)
		}
	}
}

// TestRecordedDigests pins the seed-1 inputs README.md's baseline was
// measured on. A change to how inputs are generated (or to the simulator
// they come from) changes the benchmark and must update these.
func TestRecordedDigests(t *testing.T) {
	want := map[string]string{
		"warm-wire":     "cfcc24ca680978ee2ce9e6e6c14fe793bed10e99a56f942a2f6ea6167716d852",
		"warm-model":    "b7cfec5bc448c5d251f8470f74689e800910e9055e8df08525ad7efce4c65dc4",
		"fleet-churn":   "585b19a4b92bf7f890e85432fdae9e6d659c91dc32e0bc7716c8701a9b551faa",
		"offline-paper": "19c314cc9f76d8563a80d082e11354191b0cd1c6d45d22d21584b7d8044a3fb5",
	}
	for w, d := range digests(t, 1) {
		if d != want[w] {
			t.Errorf("%s: seed-1 digest %s, recorded %s", w, d, want[w])
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	ww, _ := build("warm-wire", 3, 20)
	counts := map[string]int{}
	for _, r := range ww.pool {
		counts[r.path]++
	}
	if counts["/v1/predict/batch"] != warmWireBatches || counts["/v1/observe"] != warmWireObserves {
		t.Errorf("warm-wire mix %v, want %d batches and %d observations", counts, warmWireBatches, warmWireObserves)
	}
	wm, _ := build("warm-model", 3, 20)
	nnet := 0
	for _, r := range wm.pool {
		nnet += r.nnet
	}
	if nnet*8 != len(wm.pool) {
		t.Errorf("warm-model: %d NNet predictions of %d, want one in eight", nnet, len(wm.pool))
	}
	fc, _ := build("fleet-churn", 3, 20)
	if len(fc.order) != fleetChurnRate*20 || len(fc.keys) <= fleetBackends*8 {
		t.Errorf("fleet-churn: %d requests over %d keys", len(fc.order), len(fc.keys))
	}
	round := len(fleetChurnSelections)
	for i, p := range fc.order {
		sel := fc.keys[p/(len(fc.pool)/len(fc.keys))].Selection
		for j, slot := range slowSlots {
			if i%round == slot && sel != fleetChurnSelections[j] {
				t.Fatalf("fleet-churn request %d is %s, want %s", i, sel, fleetChurnSelections[j])
			}
		}
	}
}

func TestGoldenSections(t *testing.T) {
	golden, err := goldenSections("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range offlineRunners {
		sec := golden[id]
		if !strings.HasPrefix(sec, "### "+id+" — ") || !strings.HasSuffix(sec, "\n\n") {
			t.Errorf("section %s malformed: %.60q", id, sec)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
	}{{0.5, 5, 5}, {0.99, 10, 0}, {0.9, 9, 1}, {0, 1, 9}} {
		if v, b := quantile(s, c.q); v != c.v || b != c.beyond {
			t.Errorf("quantile(%v) = %v, %d above; want %v, %d", c.q, v, b, c.v, c.beyond)
		}
	}
}

func TestCovered(t *testing.T) {
	span := func(start, dur int64) obs.SpanRecord {
		return obs.SpanRecord{StartUnixNano: start * 1e6, DurationNanos: dur * 1e6}
	}
	parent := span(0, 10)
	kids := []obs.SpanRecord{span(1, 3), span(2, 3), span(8, 5), span(20, 1)}
	if got := covered(parent, kids); got != 6 {
		t.Errorf("covered = %v ms, want 6 (1–5 and 8–10)", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric sets the
// benchmark prints identical.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  []spec
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%d metrics declared, %d printed", len(c.declared), len(c.printed))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.printed[i].name || m.Unit != c.printed[i].unit {
				t.Errorf("metric %d: declared %s [%s], printed %s [%s]", i, m.Name, m.Unit, c.printed[i].name, c.printed[i].unit)
			}
		}
	}
}
