package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// ExperimentJSON is the stable wire and on-disk form of an Experiment, and
// the only place that form is defined: the telemetry files, the wpredd
// request targets and the snapshot references all embed it. Feature values
// are keyed by their Table 2 names, so documents remain readable if the
// catalog order ever changes. Convert with ToJSON and Experiment.
type ExperimentJSON struct {
	Workload   string  `json:"workload"`
	CPUs       int     `json:"cpus"`
	MemoryGB   int     `json:"memory_gb"`
	Terminals  int     `json:"terminals"`
	Run        int     `json:"run"`
	DataGroup  int     `json:"data_group"`
	Throughput float64 `json:"throughput"`
	MeanLatMS  float64 `json:"mean_latency_ms"`

	Resources        map[string][]float64 `json:"resources,omitempty"`
	ThroughputSeries []float64            `json:"throughput_series,omitempty"`
	Plans            []PlanJSON           `json:"plans,omitempty"`
	TxnStats         []TxnMetrics         `json:"txn_stats,omitempty"`
}

// PlanJSON is the wire form of one PlanObservation.
type PlanJSON struct {
	Query string             `json:"query"`
	Stats map[string]float64 `json:"stats"`
}

// ToJSON renders an experiment in its wire form. The result shares e's
// series slices.
func ToJSON(e *Experiment) ExperimentJSON {
	je := ExperimentJSON{
		Workload:         e.Workload,
		CPUs:             e.SKU.CPUs,
		MemoryGB:         e.SKU.MemoryGB,
		Terminals:        e.Terminals,
		Run:              e.Run,
		DataGroup:        e.DataGroup,
		Throughput:       e.Throughput,
		MeanLatMS:        e.MeanLatMS,
		ThroughputSeries: e.ThroughputSeries,
		TxnStats:         e.TxnStats,
	}
	if e.Resources.Len() > 0 {
		je.Resources = map[string][]float64{}
		for _, f := range ResourceFeatures() {
			je.Resources[f.String()] = e.Resources.Feature(f)
		}
	}
	for _, p := range e.Plans {
		jp := PlanJSON{Query: p.Query, Stats: map[string]float64{}}
		for _, f := range PlanFeatures() {
			jp.Stats[f.String()] = p.Value(f)
		}
		je.Plans = append(je.Plans, jp)
	}
	return je
}

// Experiment validates the document and converts it. Unknown feature
// names are rejected rather than silently dropped, so telemetry produced
// by a newer catalog fails loudly; so are ragged resource series and a
// partial set of them. The result shares je's series slices.
func (je *ExperimentJSON) Experiment() (*Experiment, error) {
	e := &Experiment{
		Workload:         je.Workload,
		SKU:              SKU{CPUs: je.CPUs, MemoryGB: je.MemoryGB},
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
		f, ok := FeatureByName(name)
		if !ok || f.Kind() != Resource {
			return nil, fmt.Errorf("telemetry: unknown resource feature %q", name)
		}
		e.Resources.Samples[int(f)] = series
		if ticks == 0 {
			ticks = len(series)
		} else if len(series) != ticks {
			return nil, fmt.Errorf("telemetry: resource feature %q has %d ticks, want %d", name, len(series), ticks)
		}
	}
	if len(je.Resources) > 0 && len(je.Resources) != NumResourceFeatures {
		return nil, fmt.Errorf("telemetry: experiment has %d resource series, want %d", len(je.Resources), NumResourceFeatures)
	}
	for _, jp := range je.Plans {
		var p PlanObservation
		p.Query = jp.Query
		for name, v := range jp.Stats {
			f, ok := FeatureByName(name)
			if !ok || f.Kind() != Plan {
				return nil, fmt.Errorf("telemetry: unknown plan feature %q", name)
			}
			p.Stats[int(f)-NumResourceFeatures] = v
		}
		e.Plans = append(e.Plans, p)
	}
	return e, nil
}

// WriteExperiment serializes one experiment as indented JSON.
func WriteExperiment(w io.Writer, e *Experiment) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToJSON(e))
}

// ReadExperiment parses and validates one experiment document (see
// ExperimentJSON.Experiment).
func ReadExperiment(r io.Reader) (*Experiment, error) {
	var je ExperimentJSON
	if err := json.NewDecoder(r).Decode(&je); err != nil {
		return nil, fmt.Errorf("telemetry: decode experiment: %w", err)
	}
	return je.Experiment()
}

// WriteExperiments serializes a list of experiments as a JSON array
// stream (one document per experiment).
func WriteExperiments(w io.Writer, exps []*Experiment) error {
	for _, e := range exps {
		if err := WriteExperiment(w, e); err != nil {
			return err
		}
	}
	return nil
}

// ReadExperiments parses a stream of experiment documents until EOF.
func ReadExperiments(r io.Reader) ([]*Experiment, error) {
	dec := json.NewDecoder(r)
	var out []*Experiment
	for {
		var je ExperimentJSON
		if err := dec.Decode(&je); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: decode experiment %d: %w", len(out), err)
		}
		e, err := je.Experiment()
		if err != nil {
			return nil, fmt.Errorf("telemetry: experiment %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}
