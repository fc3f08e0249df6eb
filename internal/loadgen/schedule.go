package loadgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"wpred/internal/bench"
	"wpred/internal/faults"
	"wpred/internal/telemetry"
)

// request is one scheduled request: everything about it except when the
// server answers is fixed at build time.
type request struct {
	ordinal int
	// offset is the open-loop intended send time relative to run start
	// (always 0 in closed-loop mode).
	offset time.Duration
	// kind is "single" or "batch" (the latency histogram label).
	kind string
	key  Key
	// items is the admission-queue cost: 1, or the batch size.
	items   int
	faulted bool
	body    []byte
	path    string
}

// Schedule is the fully materialized request sequence for one profile.
type Schedule struct {
	Profile  Profile
	Requests []request
}

// Digest is a sha256 over every request's path, offset, and body, in
// order — two schedules with equal digests will offer byte-identical
// traffic. Reports carry it so "same seed, same sequence" is checkable
// across machines.
func (s *Schedule) Digest() string {
	h := sha256.New()
	for _, r := range s.Requests {
		fmt.Fprintf(h, "%s|%d|", r.path, r.offset)
		h.Write(r.body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Request returns the URL path and body of the i-th scheduled request.
func (s *Schedule) Request(i int) (path string, body []byte) {
	return s.Requests[i].path, s.Requests[i].body
}

// serializableFaultModels are the telemetry fault models whose corruption
// survives JSON marshalling: the wire format rejects NaN, so the
// NaN-shaped models (dropped ticks, value corruption, counter dropout)
// are exercised at the telemetry layer's own tests, not over HTTP.
func serializableFaultModels() []faults.Model {
	return []faults.Model{
		faults.Flatline{}, faults.TruncatedRun{},
		faults.DuplicatedSamples{}, faults.AmplitudeNoise{},
	}
}

// predictWire mirrors the serve package's request shape.
type predictWire struct {
	Selection string `json:"selection"`
	Metric    string `json:"metric"`
	Model     string `json:"model"`
	ToSKU     struct {
		CPUs int `json:"cpus"`
	} `json:"to_sku"`
	Target []json.RawMessage `json:"target"`
}

// BuildSchedule materializes the profile's request sequence. Every
// decision — target payload, key, batch shape, fault injection — draws
// from a per-request child of the profile seed, so inserting or removing
// a request never perturbs the ones around it.
func BuildSchedule(p Profile) (*Schedule, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}

	// The target payload library: two standard workloads profiled on one
	// small SKU, plus fault-corrupted twins of each.
	src := telemetry.NewSource(p.Seed)
	skus := []telemetry.SKU{{CPUs: 2, MemoryGB: 16}}
	clean := bench.GenerateSuite(bench.Standard()[:2], skus, []int{4}, 2, src)
	if len(clean) == 0 {
		return nil, fmt.Errorf("loadgen: target suite generation produced no experiments")
	}
	inj := &faults.Injector{Seed: p.Seed, Rate: p.FaultRate, Models: serializableFaultModels()}
	corrupted := inj.Corrupt(clean)

	cleanDocs, err := marshalDocs(clean)
	if err != nil {
		return nil, err
	}
	faultDocs, err := marshalDocs(corrupted)
	if err != nil {
		return nil, err
	}

	n := p.Requests
	if p.Mode == OpenLoop {
		n = int(math.Ceil(p.RPS * p.Duration.Seconds()))
		if n < 1 {
			n = 1
		}
	}

	s := &Schedule{Profile: p, Requests: make([]request, n)}
	for i := 0; i < n; i++ {
		rsrc := telemetry.NewSource(p.Seed).Child(fmt.Sprintf("load/%d", i))
		r := request{ordinal: i, kind: "single", items: 1, key: p.WarmKey, path: "/v1/predict"}
		if p.Mode == OpenLoop {
			r.offset = time.Duration(float64(i) / p.RPS * float64(time.Second))
		}
		if rsrc.Float64() < p.BatchFraction {
			r.kind, r.items, r.path = "batch", p.BatchSize, "/v1/predict/batch"
		}
		if rsrc.Float64() < p.ColdFraction {
			// With a drift point set, the cold-key distribution shifts to a
			// disjoint pool half at the boundary; either way exactly one
			// IntN draw is consumed, so the per-request child sources stay
			// aligned across profiles that differ only in DriftAt.
			pool := coldKeyPool[:p.ColdKeys]
			if p.DriftAt > 0 {
				half := p.ColdKeys / 2
				if i < int(p.DriftAt*float64(n)) {
					pool = pool[:half]
				} else {
					pool = pool[half:]
				}
			}
			r.key = pool[rsrc.IntN(len(pool))]
		}
		r.faulted = rsrc.Float64() < p.FaultFraction

		docs := cleanDocs
		if r.faulted {
			docs = faultDocs
		}
		one := func() ([]byte, error) {
			return marshalPredict(r.key, p.TargetCPUs, docs[rsrc.IntN(len(docs))])
		}
		if r.kind == "single" {
			if r.body, err = one(); err != nil {
				return nil, err
			}
		} else {
			items := make([]json.RawMessage, r.items)
			for j := range items {
				doc, err := one()
				if err != nil {
					return nil, err
				}
				items[j] = doc
			}
			if r.body, err = json.Marshal(struct {
				Requests []json.RawMessage `json:"requests"`
			}{items}); err != nil {
				return nil, err
			}
		}
		s.Requests[i] = r
	}
	return s, nil
}

// marshalDocs pre-serializes every experiment once; schedules reference
// the shared bytes instead of re-marshalling per request.
func marshalDocs(exps []*telemetry.Experiment) ([]json.RawMessage, error) {
	docs := make([]json.RawMessage, len(exps))
	for i, e := range exps {
		var buf bytes.Buffer
		if err := telemetry.WriteExperiment(&buf, e); err != nil {
			return nil, fmt.Errorf("loadgen: serializing target %s: %w", e.ID(), err)
		}
		docs[i] = buf.Bytes()
	}
	return docs, nil
}

func marshalPredict(k Key, cpus int, target json.RawMessage) ([]byte, error) {
	var w predictWire
	w.Selection, w.Metric, w.Model = k.Selection, k.Metric, k.Model
	w.ToSKU.CPUs = cpus
	w.Target = []json.RawMessage{target}
	return json.Marshal(&w)
}
