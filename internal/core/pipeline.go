// Package core wires the three components into the end-to-end workload
// resource-prediction pipeline of the paper (Figure 2): feature selection
// over the reference telemetry, similarity computation between the target
// workload and the references, and SKU-to-SKU scaling prediction using the
// nearest reference's pairwise scaling model (§6.2.3).
package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"wpred/internal/distance"
	"wpred/internal/featsel"
	"wpred/internal/fingerprint"
	"wpred/internal/obs"
	"wpred/internal/roofline"
	"wpred/internal/scalemodel"
	"wpred/internal/simeval"
	"wpred/internal/telemetry"
)

// Pipeline telemetry (see "Observability" in DESIGN.md): per-stage
// wall-clock histograms for Train (sanitize, featsel) and Predict
// (sanitize, similarity, scalemodel), dropped-experiment counters fed by
// the fault layer's sanitization rejections, and run counters by outcome.
// The matching tracing spans are pipeline.train / pipeline.predict with
// one child span per stage.
func stageSeconds(op, stage string) *obs.Histogram {
	return obs.GetHistogram("wpred_pipeline_stage_duration_seconds",
		"Wall-clock duration of pipeline stages, by operation and stage.",
		obs.DefBuckets, obs.Labels{"op": op, "stage": stage})
}

func runCounter(op, status string) *obs.Counter {
	return obs.GetCounter("wpred_pipeline_runs_total",
		"Pipeline Train/Predict calls, by operation and outcome.",
		obs.Labels{"op": op, "status": status})
}

var (
	trainSanitizeSeconds   = stageSeconds("train", "sanitize")
	trainFeatselSeconds    = stageSeconds("train", "featsel")
	predictSanitizeSeconds = stageSeconds("predict", "sanitize")
	predictSimilarSeconds  = stageSeconds("predict", "similarity")
	predictScaleSeconds    = stageSeconds("predict", "scalemodel")

	droppedTrain = obs.GetCounter("wpred_pipeline_dropped_experiments_total",
		"Experiments rejected by sanitization, by pipeline stage.",
		obs.Labels{"stage": "train"})
	droppedPredict = obs.GetCounter("wpred_pipeline_dropped_experiments_total",
		"Experiments rejected by sanitization, by pipeline stage.",
		obs.Labels{"stage": "predict"})

	trainOK    = runCounter("train", "ok")
	trainErr   = runCounter("train", "error")
	predictOK  = runCounter("predict", "ok")
	predictErr = runCounter("predict", "error")
)

// Config selects the pipeline's algorithms; the zero value reproduces the
// paper's recommended configuration (RFE-LogReg top-7 features, Hist-FP
// with the L2,1 norm, pairwise SVM scaling models).
type Config struct {
	// Selection is the feature-selection strategy (default RFE LogReg).
	Selection featsel.Strategy
	// TopK features to keep (default 7).
	TopK int
	// Representation for similarity (default Hist-FP).
	Representation fingerprint.Representation
	// Metric for similarity (default L2,1).
	Metric distance.Metric
	// Strategy for scaling models (default SVM).
	Strategy scalemodel.Strategy
	// Context for scaling models (default Pairwise).
	Context scalemodel.Context
	// Subsamples per run for scaling datasets (default 10).
	Subsamples int
	// RooflineClamp caps predictions with a roofline fitted on the
	// nearest reference's observed scaling curve (Appendix B of the
	// paper): a linear or pairwise extrapolation can never exceed the
	// reference's saturation ceiling, scaled to the target's operating
	// point. Off by default, matching the paper's main experiments.
	RooflineClamp bool
	// Sanitize tunes the corruption detection applied to every reference
	// and target experiment (zero value = telemetry defaults). Clean
	// telemetry passes through value-identical, so sanitization never
	// perturbs results on pristine inputs.
	Sanitize telemetry.SanitizePolicy
	// MinValidRefs is the smallest number of usable reference experiments
	// Train accepts after sanitization (default 2).
	MinValidRefs int
	// Seed drives every randomized component.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Selection == nil {
		c.Selection = featsel.NewRFE(featsel.EstimatorLogReg)
	}
	if c.TopK == 0 {
		c.TopK = 7
	}
	if c.Metric == nil {
		c.Metric = distance.L21{}
	}
	if c.Subsamples == 0 {
		c.Subsamples = 10
	}
	if c.MinValidRefs == 0 {
		c.MinValidRefs = 2
	}
	// Representation, Strategy, and Context zero values already name the
	// paper's recommended defaults (Hist-FP, SVM, Pairwise).
	return c
}

// DroppedExperiment records one input experiment the pipeline rejected
// during sanitization, with the corruption accounting that justified it.
type DroppedExperiment struct {
	// ID is the experiment's identifier.
	ID string
	// Workload names the experiment's workload.
	Workload string
	// Stage is "train" or "predict".
	Stage string
	// Report details the corruption found.
	Report *telemetry.CorruptionReport
}

// Pipeline is the trained end-to-end predictor.
type Pipeline struct {
	cfg      Config
	refs     []*telemetry.Experiment
	selected []telemetry.Feature
	dropped  []DroppedExperiment
	classOf  map[string]string // workload → class name (for NDCG-style reporting)
}

// New returns an untrained pipeline with the given configuration.
func New(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg.withDefaults()}
}

// TrainPipeline constructs and trains a pipeline in one step — the entry
// point for callers that hold a reference suite and want a ready predictor
// (the wpredd model registry fits every cache entry through it). The
// returned pipeline is safe for concurrent PredictWithReport calls.
func TrainPipeline(cfg Config, refs []*telemetry.Experiment) (*Pipeline, error) {
	p := New(cfg)
	if err := p.Train(refs); err != nil {
		return nil, err
	}
	return p, nil
}

// SelectedFeatures returns the features chosen during Train (nil before).
func (p *Pipeline) SelectedFeatures() []telemetry.Feature {
	return append([]telemetry.Feature(nil), p.selected...)
}

// Dropped returns the reference experiments the last Train rejected —
// the train-stage degradation accounting. Prediction-stage rejections are
// returned per call by PredictWithReport and never stored here.
func (p *Pipeline) Dropped() []DroppedExperiment {
	return append([]DroppedExperiment(nil), p.dropped...)
}

// sanitize runs the corruption pass over a batch, recording rejections
// under the given stage into dst, and returns the usable sanitized
// experiments. The collector is caller-owned so concurrent
// PredictWithReport calls never append to shared pipeline state.
func (p *Pipeline) sanitize(exps []*telemetry.Experiment, stage string, dst *[]DroppedExperiment) []*telemetry.Experiment {
	kept := make([]*telemetry.Experiment, 0, len(exps))
	for _, e := range exps {
		s, rep := telemetry.Sanitize(e, p.cfg.Sanitize)
		if !rep.Usable() {
			*dst = append(*dst, DroppedExperiment{
				ID: rep.ID, Workload: e.Workload, Stage: stage, Report: rep,
			})
			if stage == "train" {
				droppedTrain.Inc()
			} else {
				droppedPredict.Inc()
			}
			continue
		}
		kept = append(kept, s)
	}
	return kept
}

// Train sanitizes the reference experiments, drops unusable ones (see
// Dropped), runs feature selection over the survivors, and retains them as
// the similarity/scaling knowledge base. References should cover each
// workload on every SKU of interest with matching runs. Train fails with
// ErrTooFewReferences only when fewer than Config.MinValidRefs references
// survive sanitization.
func (p *Pipeline) Train(refs []*telemetry.Experiment) error {
	sp := obs.StartSpan("pipeline.train")
	sp.SetAttr("refs", strconv.Itoa(len(refs)))
	err := p.train(refs, sp)
	if err != nil {
		sp.SetAttr("error", err.Error())
		trainErr.Inc()
	} else {
		sp.SetAttr("selected", strconv.Itoa(len(p.selected)))
		trainOK.Inc()
	}
	sp.End()
	return err
}

func (p *Pipeline) train(refs []*telemetry.Experiment, sp *obs.Span) error {
	if len(refs) == 0 {
		return ErrNoReferences
	}
	p.dropped = nil
	ssp := sp.Child("sanitize")
	kept := p.sanitize(refs, "train", &p.dropped)
	ssp.SetAttr("dropped", strconv.Itoa(len(p.dropped)))
	trainSanitizeSeconds.ObserveDuration(ssp.End())
	if len(kept) < p.cfg.MinValidRefs {
		return &InsufficientReferencesError{
			Usable: len(kept), Total: len(refs), Min: p.cfg.MinValidRefs,
			Dropped: p.Dropped(),
		}
	}
	p.refs = kept

	fsp := sp.Child("featsel")
	defer func() { trainFeatselSeconds.ObserveDuration(fsp.End()) }()
	// One sub-experiment row per systematic sample, labeled by workload.
	var subs []*telemetry.Experiment
	for _, e := range p.refs {
		subs = append(subs, e.SystematicSample(p.cfg.Subsamples)...)
	}
	ds := telemetry.BuildDataset(subs, nil)
	ds.MinMaxNormalize()
	res, err := p.cfg.Selection.Evaluate(ds.X, ds.Labels)
	if err != nil {
		return fmt.Errorf("core: feature selection: %w", err)
	}
	cols := res.TopK(p.cfg.TopK)
	p.selected = make([]telemetry.Feature, len(cols))
	for i, c := range cols {
		p.selected[i] = ds.Features[c]
	}
	return nil
}

// Prediction is the result of an end-to-end throughput prediction.
type Prediction struct {
	// NearestReference is the reference workload the target matched.
	NearestReference string
	// Distances holds the mean normalized distance to each reference
	// workload (smaller = more similar).
	Distances map[string]float64
	// FromSKU and ToSKU are the source and target hardware.
	FromSKU, ToSKU telemetry.SKU
	// ObservedThroughput is the target's mean measured throughput on
	// FromSKU.
	ObservedThroughput float64
	// PredictedThroughput is the modeled throughput on ToSKU.
	PredictedThroughput float64
	// PredictedLo and PredictedHi bound the prediction with an
	// approximate 95% interval derived from the dispersion of the
	// reference workload's per-run scaling factors. They equal
	// PredictedThroughput when the reference data cannot support an
	// interval (e.g. single-context extrapolation to an unobserved SKU).
	PredictedLo, PredictedHi float64
	// ScalingFactor is Predicted/Observed.
	ScalingFactor float64
	// SelectedFeatures documents the feature subset used for similarity.
	SelectedFeatures []telemetry.Feature
}

// PredictWithReport runs the full pipeline: sanitize the target
// measurements (taken on their SKU), fingerprint them, find the most
// similar reference workload, fit the scaling model from the target's SKU
// to toSKU on that reference's data, and apply it to the target's observed
// throughput.
//
// It degrades rather than aborts on dirty inputs: unusable target
// experiments are dropped and returned to the caller as long as at least
// one survives, and when the nearest reference cannot supply a scaling
// dataset for the SKU pair — for example because its runs were rejected
// during Train — the next-nearest reference is used instead.
//
// Because it only reads pipeline state (the trained references, selected
// features, and configuration), it is safe for any number of goroutines to
// call concurrently on one trained pipeline, and — everything downstream
// being deterministic in the config seed — always returns the same result
// for the same inputs.
func (p *Pipeline) PredictWithReport(target []*telemetry.Experiment, toSKU telemetry.SKU) (*Prediction, []DroppedExperiment, error) {
	sp := obs.StartSpan("pipeline.predict")
	sp.SetAttr("targets", strconv.Itoa(len(target)))
	sp.SetAttr("to_sku", toSKU.String())
	var dropped []DroppedExperiment
	pred, err := p.predict(target, toSKU, sp, &dropped)
	if err != nil {
		sp.SetAttr("error", err.Error())
		predictErr.Inc()
	} else {
		sp.SetAttr("nearest", pred.NearestReference)
		predictOK.Inc()
	}
	sp.End()
	return pred, dropped, err
}

func (p *Pipeline) predict(target []*telemetry.Experiment, toSKU telemetry.SKU, sp *obs.Span, dropped *[]DroppedExperiment) (*Prediction, error) {
	if len(p.refs) == 0 {
		return nil, ErrNotTrained
	}
	if len(target) == 0 {
		return nil, ErrNoTargets
	}
	ssp := sp.Child("sanitize")
	usable := p.sanitize(target, "predict", dropped)
	predictSanitizeSeconds.ObserveDuration(ssp.End())
	if len(usable) == 0 {
		return nil, fmt.Errorf("%w: sanitization rejected all %d", ErrNoUsableTargets, len(target))
	}
	fromSKU := usable[0].SKU
	for _, e := range usable[1:] {
		if e.SKU != fromSKU {
			return nil, fmt.Errorf("%w: %s and %s", ErrMixedSKUs, fromSKU, e.SKU)
		}
	}

	msp := sp.Child("similarity")
	ranked, dists, err := p.similarTo(usable, fromSKU)
	predictSimilarSeconds.ObserveDuration(msp.End())
	if err != nil {
		return nil, err
	}

	observed := 0.0
	for _, e := range usable {
		observed += e.Throughput
	}
	observed /= float64(len(usable))

	csp := sp.Child("scalemodel")
	defer func() { predictScaleSeconds.ObserveDuration(csp.End()) }()
	var lastErr error
	for _, nearest := range ranked {
		pred, err := p.scaleVia(nearest, fromSKU, toSKU, observed)
		if err != nil {
			lastErr = err
			continue
		}
		csp.SetAttr("reference", nearest)
		pred.NearestReference = nearest
		pred.Distances = dists
		pred.FromSKU, pred.ToSKU = fromSKU, toSKU
		pred.ObservedThroughput = observed
		pred.ScalingFactor = pred.PredictedThroughput / observed
		pred.SelectedFeatures = p.SelectedFeatures()
		return pred, nil
	}
	return nil, fmt.Errorf("%w (tried %d candidates): %v", ErrNoScalingReference, len(ranked), lastErr)
}

// scaleVia fits the named reference workload's scaling model for the SKU
// pair and applies it to the observed throughput, filling the prediction
// fields the scaling stage owns (throughput and interval).
func (p *Pipeline) scaleVia(nearest string, fromSKU, toSKU telemetry.SKU, observed float64) (*Prediction, error) {
	// Build the reference's scaling dataset. Pairwise models need the
	// exact SKU pair; single models can use every profiled SKU and may
	// extrapolate to target SKUs that were never observed.
	var refSetting []*telemetry.Experiment
	for _, e := range p.refs {
		if e.Workload != nearest {
			continue
		}
		if p.cfg.Context == scalemodel.Single || e.SKU == fromSKU || e.SKU == toSKU {
			refSetting = append(refSetting, e)
		}
	}
	src := telemetry.NewSource(p.cfg.Seed)
	rds, err := scalemodel.FromExperiments(refSetting, p.cfg.Subsamples, src)
	if err != nil {
		return nil, fmt.Errorf("core: scaling dataset for %s: %w", nearest, err)
	}
	fromIdx, err := rds.SKUIndex(fromSKU.CPUs)
	if err != nil {
		return nil, err
	}
	toIdx := -1
	if p.cfg.Context == scalemodel.Pairwise {
		if toIdx, err = rds.SKUIndex(toSKU.CPUs); err != nil {
			return nil, err
		}
	} else if idx, idxErr := rds.SKUIndex(toSKU.CPUs); idxErr == nil {
		toIdx = idx
	}

	var predicted float64
	switch p.cfg.Context {
	case scalemodel.Single:
		m, err := scalemodel.FitSingle(p.cfg.Strategy, rds, nil, p.cfg.Seed)
		if err != nil {
			return nil, err
		}
		// Rescale the reference's absolute prediction by the ratio of
		// the target's observation to the reference's from-SKU level.
		refAt := m.Predict(fromSKU.CPUs)
		refTo := m.Predict(toSKU.CPUs)
		if refAt <= 0 {
			return nil, fmt.Errorf("core: single model predicts non-positive throughput at %s", fromSKU)
		}
		predicted = observed * refTo / refAt
	case scalemodel.Pairwise:
		m, err := scalemodel.FitPair(p.cfg.Strategy, rds, fromIdx, toIdx, nil, p.cfg.Seed)
		if err != nil {
			return nil, err
		}
		// The pairwise model maps reference from-SKU throughput to
		// to-SKU throughput; apply its scaling factor at the
		// reference operating point to the target's observation.
		refMean := mean(rds.Obs[fromIdx])
		factor := m.ScalingFactor(refMean)
		predicted = observed * factor
	}

	if p.cfg.RooflineClamp {
		if bound, ok := p.rooflineBound(rds, fromIdx, toSKU.CPUs, observed); ok && predicted > bound {
			predicted = bound
		}
	}

	lo, hi := predicted, predicted
	if toIdx >= 0 {
		if flo, fhi, ok := factorInterval(rds, fromIdx, toIdx); ok {
			lo, hi = observed*flo, observed*fhi
			if predicted < lo {
				lo = predicted
			}
			if predicted > hi {
				hi = predicted
			}
		}
	}
	return &Prediction{PredictedThroughput: predicted, PredictedLo: lo, PredictedHi: hi}, nil
}

// factorInterval computes an approximate 95% interval on the reference's
// SKU-to-SKU scaling factor from the dispersion of the matched per-point
// factors.
func factorInterval(rds *scalemodel.Dataset, fromIdx, toIdx int) (lo, hi float64, ok bool) {
	n := rds.NPoints()
	if n < 3 {
		return 0, 0, false
	}
	factors := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		from := rds.Obs[fromIdx][i]
		if from <= 0 {
			continue
		}
		factors = append(factors, rds.Obs[toIdx][i]/from)
	}
	if len(factors) < 3 {
		return 0, 0, false
	}
	m := mean(factors)
	variance := 0.0
	for _, f := range factors {
		d := f - m
		variance += d * d
	}
	sd := math.Sqrt(variance / float64(len(factors)-1))
	return m - 1.96*sd, m + 1.96*sd, true
}

// similarTo fingerprints the target alongside same-SKU references and
// returns every reference workload ranked by ascending mean normalized
// distance (ties broken by name), plus the distance map itself. Only the
// target-vs-reference distances are evaluated (simeval.RankWorkloads).
// PredictWithReport walks the ranking so a reference with unusable
// scaling data degrades to the next-nearest.
func (p *Pipeline) similarTo(target []*telemetry.Experiment, sku telemetry.SKU) ([]string, map[string]float64, error) {
	refs := make([]*telemetry.Experiment, 0, len(p.refs))
	for _, e := range p.refs {
		if e.SKU == sku {
			refs = append(refs, e)
		}
	}
	if len(refs) == 0 {
		// Fall back to all references when the SKU was never profiled.
		refs = p.refs
	}
	all := append(append([]*telemetry.Experiment(nil), refs...), target...)

	features := p.selected
	if len(features) == 0 {
		features = telemetry.AllFeatures()
	}
	// Plan-only targets restrict similarity to plan features.
	planOnly := false
	for _, e := range all {
		if e.Resources.Len() == 0 {
			planOnly = true
			break
		}
	}
	if planOnly {
		kept := features[:0:0]
		for _, f := range features {
			if f.Kind() == telemetry.Plan {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			return nil, nil, errors.New("core: plan-only target but no plan features selected")
		}
		features = kept
	}

	b := &fingerprint.Builder{Rep: p.cfg.Representation, Features: features}
	if err := b.Fit(all); err != nil {
		return nil, nil, err
	}
	items := make([]simeval.Item, len(all))
	for i, e := range all {
		fp, err := b.Build(e)
		if err != nil {
			return nil, nil, err
		}
		items[i] = simeval.Item{Workload: e.Workload, Run: e.Run, FP: fp}
	}
	return simeval.RankWorkloads(items[:len(refs)], items[len(refs):], p.cfg.Metric)
}

// rooflineBound fits a roofline on the reference workload's observed
// scaling curve and scales it to the target's operating point: the
// target's prediction may not exceed the reference's relative saturation
// ceiling. It reports false when the reference data cannot support a fit.
func (p *Pipeline) rooflineBound(rds *scalemodel.Dataset, fromIdx, toCPUs int, observed float64) (float64, bool) {
	cpus := make([]float64, 0, len(rds.SKUs))
	tput := make([]float64, 0, len(rds.SKUs))
	for si, sku := range rds.SKUs {
		cpus = append(cpus, float64(sku.CPUs))
		tput = append(tput, mean(rds.Obs[si]))
	}
	roof, err := roofline.FitCeilings(cpus, tput, 1.05)
	if err != nil {
		return 0, false
	}
	refAtFrom := mean(rds.Obs[fromIdx])
	if refAtFrom <= 0 {
		return 0, false
	}
	// Scale the reference ceiling to the target's operating point.
	ratio := observed / refAtFrom
	return roof.Bound(float64(toCPUs)) * ratio, true
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
