package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"wpred/internal/telemetry"
)

// The two-pass request decoder that the single strict pass replaced, kept
// as the oracle for FuzzDecodePredictRequest: the outer decoder captured
// each target (and each batch item) as json.RawMessage, and a second
// decoder re-read those bytes. Only the 413 mapping is left out (the fuzz
// input is never size-capped). Its known differences from the strict
// decoder are listed at checkOracle.

type oraclePredictRequest struct {
	Selection string            `json:"selection,omitempty"`
	Metric    string            `json:"metric,omitempty"`
	Model     string            `json:"model,omitempty"`
	ToSKU     skuJSON           `json:"to_sku"`
	Target    []json.RawMessage `json:"target"`
}

type oracleBatchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

func oracleDecodePredictRequest(r io.Reader) (*PredictRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var raw oraclePredictRequest
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("serve: decode request: %w", err)
	}
	if dec.More() {
		return nil, errors.New("serve: trailing data after request object")
	}
	return oracleValidatePredictRequest(&raw)
}

func oracleValidatePredictRequest(raw *oraclePredictRequest) (*PredictRequest, error) {
	key, err := validateKey(raw.Selection, raw.Metric, raw.Model)
	if err != nil {
		return nil, err
	}
	req := &PredictRequest{Key: key}
	if raw.ToSKU.CPUs < 1 || raw.ToSKU.CPUs > maxSKUCPUs {
		return nil, fmt.Errorf("serve: to_sku.cpus must be in [1, %d], got %d", maxSKUCPUs, raw.ToSKU.CPUs)
	}
	if raw.ToSKU.MemoryGB < 0 {
		return nil, fmt.Errorf("serve: to_sku.memory_gb must be >= 0, got %d", raw.ToSKU.MemoryGB)
	}
	req.ToSKU = telemetry.SKU{CPUs: raw.ToSKU.CPUs, MemoryGB: raw.ToSKU.MemoryGB}
	if req.ToSKU.MemoryGB == 0 {
		req.ToSKU.MemoryGB = 8 * req.ToSKU.CPUs
	}
	if len(raw.Target) == 0 {
		return nil, errors.New("serve: request has no target experiments")
	}
	if len(raw.Target) > MaxTargetsPerItem {
		return nil, fmt.Errorf("serve: %d target experiments exceed the per-request cap of %d", len(raw.Target), MaxTargetsPerItem)
	}
	req.Target = make([]*telemetry.Experiment, len(raw.Target))
	for i, doc := range raw.Target {
		e, err := oracleReadExperiment(bytes.NewReader(doc))
		if err != nil {
			return nil, fmt.Errorf("serve: target[%d]: %w", i, err)
		}
		if !finite(e.Throughput) || !finite(e.MeanLatMS) {
			return nil, fmt.Errorf("serve: target[%d]: non-finite throughput or latency", i)
		}
		req.Target[i] = e
	}
	return req, nil
}

func oracleDecodeBatchRequest(r io.Reader) ([]*PredictRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var raw oracleBatchRequest
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("serve: decode request: %w", err)
	}
	if dec.More() {
		return nil, errors.New("serve: trailing data after batch object")
	}
	if len(raw.Requests) == 0 {
		return nil, errors.New("serve: batch has no requests")
	}
	if len(raw.Requests) > MaxBatchItems {
		return nil, fmt.Errorf("serve: %d batch items exceed the cap of %d", len(raw.Requests), MaxBatchItems)
	}
	out := make([]*PredictRequest, len(raw.Requests))
	for i, doc := range raw.Requests {
		req, err := oracleDecodePredictRequest(bytes.NewReader(doc))
		if err != nil {
			return nil, fmt.Errorf("serve: requests[%d]: %w", i, err)
		}
		out[i] = req
	}
	return out, nil
}

// oracleExperiment and oracleReadExperiment are the telemetry package's
// single-document reader as the two-pass decoder called it.
type oracleExperiment struct {
	Workload   string  `json:"workload"`
	CPUs       int     `json:"cpus"`
	MemoryGB   int     `json:"memory_gb"`
	Terminals  int     `json:"terminals"`
	Run        int     `json:"run"`
	DataGroup  int     `json:"data_group"`
	Throughput float64 `json:"throughput"`
	MeanLatMS  float64 `json:"mean_latency_ms"`

	Resources        map[string][]float64   `json:"resources,omitempty"`
	ThroughputSeries []float64              `json:"throughput_series,omitempty"`
	Plans            []oraclePlanObs        `json:"plans,omitempty"`
	TxnStats         []telemetry.TxnMetrics `json:"txn_stats,omitempty"`
}

type oraclePlanObs struct {
	Query string             `json:"query"`
	Stats map[string]float64 `json:"stats"`
}

func oracleReadExperiment(r io.Reader) (*telemetry.Experiment, error) {
	var je oracleExperiment
	dec := json.NewDecoder(r)
	if err := dec.Decode(&je); err != nil {
		return nil, fmt.Errorf("telemetry: decode experiment: %w", err)
	}
	e := &telemetry.Experiment{
		Workload:         je.Workload,
		SKU:              telemetry.SKU{CPUs: je.CPUs, MemoryGB: je.MemoryGB},
		Terminals:        je.Terminals,
		Run:              je.Run,
		DataGroup:        je.DataGroup,
		Throughput:       je.Throughput,
		MeanLatMS:        je.MeanLatMS,
		ThroughputSeries: je.ThroughputSeries,
		TxnStats:         je.TxnStats,
	}
	var ticks int
	for name, series := range je.Resources {
		f, ok := telemetry.FeatureByName(name)
		if !ok || f.Kind() != telemetry.Resource {
			return nil, fmt.Errorf("telemetry: unknown resource feature %q", name)
		}
		e.Resources.Samples[int(f)] = series
		if ticks == 0 {
			ticks = len(series)
		} else if len(series) != ticks {
			return nil, fmt.Errorf("telemetry: resource feature %q has %d ticks, want %d", name, len(series), ticks)
		}
	}
	if len(je.Resources) > 0 && len(je.Resources) != telemetry.NumResourceFeatures {
		return nil, fmt.Errorf("telemetry: experiment has %d resource series, want %d", len(je.Resources), telemetry.NumResourceFeatures)
	}
	for _, jp := range je.Plans {
		var p telemetry.PlanObservation
		p.Query = jp.Query
		for name, v := range jp.Stats {
			f, ok := telemetry.FeatureByName(name)
			if !ok || f.Kind() != telemetry.Plan {
				return nil, fmt.Errorf("telemetry: unknown plan feature %q", name)
			}
			p.Stats[int(f)-telemetry.NumResourceFeatures] = v
		}
		e.Plans = append(e.Plans, p)
	}
	return e, nil
}

// checkOracle compares the strict decoder's result on data (got, err)
// with the oracle's (want, oerr). Where both accept, the decoded requests
// must be deeply equal. Accept/reject must match except in three
// documented cases:
//
//   - an unknown key inside a target document, which the strict pass
//     rejects and the oracle's second decoder silently dropped;
//   - bytes after the request object, such as a trailing '}' or ']', that
//     the oracle's dec.More() check let through;
//   - a "target" or "requests" member repeated within one object. The
//     oracle replaced the earlier array's elements wholesale; one decoder
//     pass merges the later elements into the earlier ones, exactly as
//     encoding/json already treated every other repeated member (to_sku,
//     resources, fields inside a target) in both decoders.
func checkOracle(t *testing.T, data string, got []*PredictRequest, err error, want []*PredictRequest, oerr error) {
	t.Helper()
	switch {
	case repeatsArrayMember(data):
	case err == nil && oerr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatal("strict decoder and oracle accepted the input but decoded different requests")
		}
	case err == nil:
		t.Fatalf("strict decoder accepted what the oracle rejected: %v", oerr)
	case oerr == nil:
		if msg := err.Error(); !strings.Contains(msg, "json: unknown field") && !strings.Contains(msg, "serve: trailing data after") {
			t.Fatalf("strict decoder rejected what the oracle accepted: %v", err)
		}
	}
}

// repeatsArrayMember reports whether some object in data names a member
// that encoding/json would bind to "target" or "requests" (matching
// case-insensitively) more than once.
func repeatsArrayMember(data string) bool {
	type frame struct {
		object, wantKey bool
		seen            map[string]bool
	}
	dec := json.NewDecoder(strings.NewReader(data))
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if key, ok := tok.(string); ok && top != nil && top.object && top.wantKey {
			top.wantKey = false
			for _, name := range []string{"target", "requests"} {
				if strings.EqualFold(key, name) {
					if top.seen[name] {
						return true
					}
					top.seen[name] = true
				}
			}
			continue
		}
		if top != nil && top.object {
			top.wantKey = true // this token is (or opens) the member's value
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{object: true, wantKey: true, seen: map[string]bool{}})
		case json.Delim('['):
			stack = append(stack, &frame{})
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
	}
}
