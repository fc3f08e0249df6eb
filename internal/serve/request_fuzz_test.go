package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"wpred/internal/loadgen"
	"wpred/internal/scalemodel"
)

// FuzzDecodePredictRequest asserts the /v1/predict and /v1/predict/batch
// decoders are total: arbitrary bytes either produce fully validated
// requests or an error — never a panic — and every accepted request
// satisfies the documented invariants (exactly one JSON value, resolvable
// key, in-range SKU, bounded non-empty target list, finite scalars). Every
// input also runs through the two-pass decoder the strict pass replaced
// (request_oracle_test.go), and the two must agree up to the differences
// listed at checkOracle. Seeds live in testdata/fuzz alongside the
// telemetry decoder's corpus.
func FuzzDecodePredictRequest(f *testing.F) {
	valid := string(fuzzValidRequest(f))
	f.Add(valid)
	f.Add(strings.Replace(valid, ":", ",", 5)) // mangled syntax
	f.Add(valid + valid)                       // trailing data
	f.Add(valid[:len(valid)/2])                // truncated
	f.Add("")
	f.Add("null")
	f.Add("{}")
	f.Add(`{"to_sku":{"cpus":4}}`)                                                // no targets
	f.Add(`{"to_sku":{"cpus":0},"target":[{}]}`)                                  // zero CPUs
	f.Add(`{"to_sku":{"cpus":1000000},"target":[{}]}`)                            // absurd SKU
	f.Add(`{"to_sku":{"cpus":4,"memory_gb":-1},"target":[{}]}`)                   // negative memory
	f.Add(`{"to_sku":{"cpus":4},"target":[{"throughput":1e999}]}`)                // ±Inf literal
	f.Add(`{"to_sku":{"cpus":4},"target":[{"throughput":"NaN"}]}`)                // NaN as string
	f.Add(`{"selection":"Oracle","to_sku":{"cpus":4},"target":[{}]}`)             // unknown selection
	f.Add(`{"metric":"L9,9","to_sku":{"cpus":4},"target":[{}]}`)                  // unknown metric
	f.Add(`{"model":"Magic","to_sku":{"cpus":4},"target":[{}]}`)                  // unknown model
	f.Add(`{"bogus":true,"to_sku":{"cpus":4},"target":[{}]}`)                     // unknown field
	f.Add(`{"to_sku":{"cpus":4},"target":[` + strings.Repeat("{},", 70) + `{}]}`) // too many targets
	f.Add(`{"to_sku":{"cpus":4},"target":[{"resources":{"bogus":[1]}}]}`)         // unknown feature
	f.Add(strings.Repeat(`[`, 200))
	f.Add(strings.Repeat(`{"target":`, 50))
	f.Add(valid + "}")                                                 // trailing '}'
	f.Add(valid + "]")                                                 // trailing ']'
	f.Add(valid + " }}}")                                              // trailing braces after whitespace
	f.Add(valid + "\n")                                                // trailing whitespace only
	f.Add(`{"requests":[` + valid + "," + valid + `]}`)                // batch of two
	f.Add(`{"requests":[` + valid + `]}]`)                             // batch with trailing ']'
	f.Add(`{"to_sku":{"cpus":4},"target":[{"bogus":true}]}`)           // unknown field in a target
	f.Add(`{"to_sku":{"cpus":4},"target":[{"cpus":2}],"TARGET":[{}]}`) // repeated target member
	for _, body := range loadgenBodies(f) {
		f.Add(string(body))
	}

	f.Fuzz(func(t *testing.T, data string) {
		req, err := decodePredictRequest(strings.NewReader(data))
		oreq, oerr := oracleDecodePredictRequest(strings.NewReader(data))
		checkOracle(t, data, []*PredictRequest{req}, err, []*PredictRequest{oreq}, oerr)
		if err == nil {
			checkAccepted(t, data, req)
		} else if req != nil {
			t.Fatal("decoder returned both a request and an error")
		}

		reqs, err := decodeBatchRequest(strings.NewReader(data))
		oreqs, oerr := oracleDecodeBatchRequest(strings.NewReader(data))
		checkOracle(t, data, reqs, err, oreqs, oerr)
		if err != nil {
			if reqs != nil {
				t.Fatal("batch decoder returned both requests and an error")
			}
			return
		}
		if len(reqs) == 0 || len(reqs) > MaxBatchItems {
			t.Fatalf("accepted a batch of %d items", len(reqs))
		}
		for _, req := range reqs {
			checkAccepted(t, data, req)
		}
	})
}

// checkAccepted asserts the invariants of a request the decoder accepted
// from data.
func checkAccepted(t *testing.T, data string, req *PredictRequest) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(data))
	var v json.RawMessage
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("accepted input that is not JSON: %v", err)
	}
	if rest := strings.Trim(data[dec.InputOffset():], " \t\r\n"); rest != "" {
		t.Fatalf("accepted trailing data %.20q after the request object", rest)
	}
	if _, ok := selectionByName(req.Key.Selection, 0); !ok {
		t.Fatalf("accepted unknown selection %q", req.Key.Selection)
	}
	if _, ok := metricByName(req.Key.Metric); !ok {
		t.Fatalf("accepted unknown metric %q", req.Key.Metric)
	}
	if _, ok := scalemodel.StrategyByName(req.Key.Model); !ok {
		t.Fatalf("accepted unknown model %q", req.Key.Model)
	}
	if req.ToSKU.CPUs < 1 || req.ToSKU.CPUs > maxSKUCPUs {
		t.Fatalf("accepted out-of-range to_sku.cpus %d", req.ToSKU.CPUs)
	}
	if req.ToSKU.MemoryGB < 1 {
		t.Fatalf("accepted non-positive memory %d", req.ToSKU.MemoryGB)
	}
	if len(req.Target) == 0 || len(req.Target) > MaxTargetsPerItem {
		t.Fatalf("accepted %d targets", len(req.Target))
	}
	for i, e := range req.Target {
		if e == nil {
			t.Fatalf("accepted nil target %d", i)
		}
		if !finite(e.Throughput) || !finite(e.MeanLatMS) {
			t.Fatalf("accepted non-finite scalars in target %d", i)
		}
	}
}

// loadgenBodies returns the first single and the first batch request body
// of the quick load profile: real-sized traffic as the load harness and
// the router send it.
func loadgenBodies(f *testing.F) [][]byte {
	f.Helper()
	p, _ := loadgen.BuiltinProfile("quick")
	s, err := loadgen.BuildSchedule(p)
	if err != nil {
		f.Fatal(err)
	}
	bodies := map[string][]byte{}
	for i := range s.Requests {
		if path, body := s.Request(i); bodies[path] == nil {
			bodies[path] = body
		}
	}
	single, batch := bodies["/v1/predict"], bodies["/v1/predict/batch"]
	if single == nil || batch == nil {
		f.Fatal("quick profile schedules no single or no batch request")
	}
	return [][]byte{single, batch}
}

// fuzzValidRequest builds a well-formed request body without dragging the
// simulator into the fuzz harness: a minimal plan-only experiment.
func fuzzValidRequest(f *testing.F) []byte {
	f.Helper()
	return []byte(`{
  "selection": "Variance",
  "metric": "L2,1",
  "model": "Regression",
  "to_sku": {"cpus": 8, "memory_gb": 64},
  "target": [
    {"workload": "W", "cpus": 2, "memory_gb": 16, "terminals": 4, "run": 1, "throughput": 100.5, "mean_latency_ms": 9.5}
  ]
}`)
}
