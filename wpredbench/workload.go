package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"wpred/internal/bench"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

// key is a registry key in the serving tier's selection × metric × model
// space, by display name.
type key struct {
	Selection string `json:"selection"`
	Metric    string `json:"metric"`
	Model     string `json:"model"`
}

// request is one materialised HTTP request. The servers see only body.
type request struct {
	path string
	body []byte
	// items is the number of predictions the request asks for (0 for an
	// observation).
	items int
	// nnet counts the items keyed on the NNet scaling family.
	nnet int
	// docs are the target telemetry documents inside body; the traced run
	// decodes them itself to time telemetry.ReadExperiment.
	docs [][]byte
}

// sequence is a workload's traffic: a pool of distinct requests and the
// order they are sent in. Position i of a run sends pool[order[i%len]].
type sequence struct {
	workload string
	pool     []request
	order    []int
	// rate is the open-loop arrival rate in requests per second; 0 means
	// closed loop.
	rate float64
	// keys are the registry keys the servers warm before timing starts.
	keys []key
	// registryCap is each server's registry capacity (0 = wpredd default).
	registryCap int
}

func (s *sequence) at(i int) int { return s.order[i%len(s.order)] }

// conns is the number of client connections the load is sent on. A closed
// loop uses one, so a request never competes with the next one for the
// machine's two CPUs and latency tracks the request's own cost; the open
// loop uses two, so a slow fit does not hold back the arrivals behind it.
func (s *sequence) conns() int {
	if s.rate > 0 {
		return 2
	}
	return 1
}

// digest is a sha256 over everything the servers will be sent, in order,
// so two runs with equal digests offered byte-identical traffic.
func (s *sequence) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%g|%d\n", s.workload, s.rate, len(s.order))
	for _, i := range s.order {
		r := &s.pool[i]
		fmt.Fprintf(h, "%s|%d\n", r.path, len(r.body))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Target SKUs. References are profiled on the whole ladder; targets are
// observed on the smallest rung and predicted onto a larger one, which
// pairwise scaling models need to find among the references.
var (
	refSKUs   = []telemetry.SKU{{CPUs: 2, MemoryGB: 16}, {CPUs: 4, MemoryGB: 32}, {CPUs: 8, MemoryGB: 64}}
	targetSKU = refSKUs[0]
	toCPUs    = []int{4, 8}
)

// serverSeed seeds every server and its reference suite, as wpredd's
// default seed does. The reference library is deployment state, not
// traffic: the workload seed varies only what the servers are sent.
const serverSeed = 42

// references is the reference suite every server trains on: the simulated
// suite `wpredload -self` serves.
func references() []*telemetry.Experiment {
	return bench.GenerateSuite(bench.Standard()[:3], refSKUs, []int{4}, 2, telemetry.NewSource(serverSeed))
}

// targetDocs simulates runs of three workloads (YCSB is not among the
// references) on the target SKU and serialises each one.
func targetDocs(src *telemetry.Source, ticks, runs int) ([][]byte, error) {
	var docs [][]byte
	for _, name := range []string{bench.TPCCName, bench.TwitterName, bench.YCSBName} {
		w, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		for r := 0; r < runs; r++ {
			e := simdb.Simulate(w, simdb.Config{SKU: targetSKU, Terminals: 4, Run: r, DataGroup: r % 3, Ticks: ticks}, src)
			var buf bytes.Buffer
			if err := telemetry.WriteExperiment(&buf, e); err != nil {
				return nil, fmt.Errorf("serialising target %s: %w", e.ID(), err)
			}
			docs = append(docs, buf.Bytes())
		}
	}
	return docs, nil
}

type predictWire struct {
	key
	ToSKU struct {
		CPUs int `json:"cpus"`
	} `json:"to_sku"`
	Target []json.RawMessage `json:"target"`
}

func predictBody(k key, cpus int, doc []byte) ([]byte, error) {
	w := predictWire{key: k}
	w.ToSKU.CPUs = cpus
	w.Target = []json.RawMessage{doc}
	return json.Marshal(&w)
}

func isNNet(k key) int {
	if k.Model == "NNet" {
		return 1
	}
	return 0
}

// singlePredict is the j-th prediction of a pool. Documents, keys and
// target SKUs are dealt round-robin, so every seed sends each document and
// key equally often; the seed changes the documents' contents and the
// order requests are sent in.
func singlePredict(j int, keys []key, docs [][]byte) (request, error) {
	doc := docs[j%len(docs)]
	k := keys[(j/len(docs))%len(keys)]
	cpus := toCPUs[(j/(len(docs)*len(keys)))%len(toCPUs)]
	body, err := predictBody(k, cpus, doc)
	return request{path: "/v1/predict", body: body, items: 1, nnet: isNNet(k), docs: [][]byte{doc}}, err
}

// kinds returns n request kinds, batches and observes of them, in seeded
// order, so every seed sends the same mix.
func kinds(src *telemetry.Source, n, batches, observes int) []string {
	out := make([]string, n)
	for i := range out {
		switch {
		case i < batches:
			out[i] = "batch"
		case i < batches+observes:
			out[i] = "observe"
		default:
			out[i] = "single"
		}
	}
	src.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func cross(selections, metrics, models []string) []key {
	var out []key
	for _, s := range selections {
		for _, m := range metrics {
			for _, mod := range models {
				out = append(out, key{s, m, mod})
			}
		}
	}
	return out
}

var norms = []string{"L1,1", "L2,1", "Fro", "Canb"}

// Workload shapes; README.md gives the reasons for each.
const (
	warmWirePool     = 256
	warmWireBatches  = 26 // about one request in ten
	warmWireObserves = 51 // about one request in five
	warmWireBatch    = 4
	warmModelPool    = 64
	warmModelNNet    = 8
	fleetChurnRate   = 40 // requests per second: about half the 80–105/s capacity measured on 2 CPUs
	fleetBackends    = 2
)

// warmWire: large single predictions on cheap, warm keys, with batches of
// four and small observations mixed in.
func warmWire(seed uint64) (*sequence, error) {
	src := telemetry.NewSource(seed).Child("wpredbench/warm-wire")
	docs, err := targetDocs(src.Child("targets"), 360, 2)
	if err != nil {
		return nil, err
	}
	keys := cross([]string{"Variance", "Pearson"}, norms, []string{"Regression", "SVM", "GB", "MARS"})
	s := &sequence{workload: "warm-wire", keys: keys, registryCap: len(keys)}
	mix := kinds(src.Child("mix"), warmWirePool, warmWireBatches, warmWireObserves)
	j := 0 // predictions dealt so far
	for i, kind := range mix {
		var r request
		switch kind {
		case "single":
			if r, err = singlePredict(j, keys, docs); err != nil {
				return nil, err
			}
			j++
		case "batch":
			items := make([]json.RawMessage, warmWireBatch)
			r = request{path: "/v1/predict/batch", items: warmWireBatch}
			for k := range items {
				one, err := singlePredict(j, keys, docs)
				if err != nil {
					return nil, err
				}
				j++
				items[k] = one.body
				r.nnet += one.nnet
				r.docs = append(r.docs, one.docs...)
			}
			if r.body, err = json.Marshal(struct {
				Requests []json.RawMessage `json:"requests"`
			}{items}); err != nil {
				return nil, err
			}
		case "observe":
			// A stationary residual stream: observed stays within a
			// fraction of a percent of predicted, so no drift event fires.
			rs := src.Child(fmt.Sprintf("observe/%d", i))
			k := keys[rs.IntN(len(keys))]
			predicted := math.Round(rs.Normal(1000, 200)*100) / 100
			observed := math.Round(predicted*(1+0.005*rs.NormFloat64())*100) / 100
			body, err := json.Marshal(struct {
				key
				Tick      int     `json:"tick"`
				Observed  float64 `json:"observed"`
				Predicted float64 `json:"predicted"`
			}{k, i, observed, predicted})
			if err != nil {
				return nil, err
			}
			r = request{path: "/v1/observe", body: body}
		}
		s.pool = append(s.pool, r)
	}
	s.order = src.Child("order").Perm(len(s.pool))
	return s, nil
}

// warmModel: short single predictions on warm keys whose per-request
// scaling-model refit is expensive; exactly one in eight is NNet.
func warmModel(seed uint64) (*sequence, error) {
	src := telemetry.NewSource(seed).Child("wpredbench/warm-model")
	docs, err := targetDocs(src.Child("targets"), 36, 2)
	if err != nil {
		return nil, err
	}
	cheap := cross([]string{"RFE LogReg"}, []string{"L2,1"}, []string{"SVM", "LMM", "GB"})
	nnet := key{"RFE LogReg", "L2,1", "NNet"}
	s := &sequence{workload: "warm-model", keys: append(append([]key(nil), cheap...), nnet)}
	for i := 0; i < warmModelPool; i++ {
		j, keys := i-warmModelNNet, cheap
		if i < warmModelNNet {
			j, keys = i, []key{nnet}
		}
		r, err := singlePredict(j, keys, docs)
		if err != nil {
			return nil, err
		}
		s.pool = append(s.pool, r)
	}
	s.order = src.Child("order").Perm(len(s.pool))
	return s, nil
}

// fleetChurnSelections are the feature selections whose cold fits cost
// milliseconds to about 175 ms on the reference suite; the sequential
// feature selectors (seconds per fit) are left out. The slow ones come
// first: RFE LogReg (~175 ms), RFE DecTree (~30 ms), RandomForest (~85 ms).
var fleetChurnSelections = []string{
	"RFE LogReg", "RFE DecTree", "RandomForest",
	"Variance", "fANOVA", "MIGain", "Pearson", "Lasso", "Elastic Net", "RFE Linear", "Baseline",
}

// slowSlots are the positions of the slow selections in every round of
// the fleet-churn rotation: spaced so their fits overlap little at 40
// requests/s, and the same for every seed.
var slowSlots = []int{0, 4, 7}

// fleetChurn: open-loop arrivals through the router, rotating through more
// cold keys than the fleet's registries hold.
func fleetChurn(seed uint64, seconds int) (*sequence, error) {
	src := telemetry.NewSource(seed).Child("wpredbench/fleet-churn")
	docs, err := targetDocs(src.Child("targets"), 36, 1)
	if err != nil {
		return nil, err
	}
	models := []string{"Regression", "SVM", "GB", "MARS", "LMM"}
	var keys []key
	for i, k := range cross(fleetChurnSelections, norms, []string{""}) {
		k.Model = models[i%len(models)]
		keys = append(keys, k)
	}
	s := &sequence{workload: "fleet-churn", keys: keys, rate: fleetChurnRate}
	for i, k := range keys {
		for j, doc := range docs {
			cpus := toCPUs[(i+j)%len(toCPUs)]
			body, err := predictBody(k, cpus, doc)
			if err != nil {
				return nil, err
			}
			s.pool = append(s.pool, request{path: "/v1/predict", body: body, items: 1, docs: [][]byte{doc}})
		}
	}
	// Keys rotate in cycles of four rounds. A round sends every selection
	// once, each selection's norms coming in a seeded order over the
	// cycle, so a key comes back about len(keys) requests later: past what
	// the LRU registries hold. The slow selections keep their slots and
	// the fast ones are shuffled into the rest, so every seed offers the
	// same load shape.
	n := int(math.Ceil(fleetChurnRate * float64(seconds)))
	osrc := src.Child("order")
	for len(s.order) < n {
		normOrder := make([][]int, len(fleetChurnSelections))
		for sel := range normOrder {
			normOrder[sel] = osrc.Perm(len(norms))
		}
		for round := range norms {
			fast := osrc.Perm(len(fleetChurnSelections) - len(slowSlots))
			for slot := range fleetChurnSelections {
				sel := slices.Index(slowSlots, slot)
				if sel < 0 {
					sel, fast = len(slowSlots)+fast[0], fast[1:]
				}
				k := sel*len(norms) + normOrder[sel][round]
				s.order = append(s.order, k*len(docs)+osrc.IntN(len(docs)))
			}
		}
	}
	s.order = s.order[:n]
	return s, nil
}
