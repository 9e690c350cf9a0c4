// Package ibox is a from-scratch Go reproduction of "iBox: Internet in a
// Box" (Ashok et al., HotNets 2020): data-informed network simulation that
// turns input–output packet traces into network models able to predict how
// a *different* protocol would have fared on the same path.
//
// The package is a thin public facade over the internal implementation:
//
//   - Fit learns an iBoxNet model (§3) — bottleneck bandwidth, propagation
//     delay, buffer size and a cross-traffic time series — from one trace;
//   - Model.Run replays any congestion-control protocol closed-loop on the
//     learnt model (the §2 instance test / counterfactual);
//   - EnsembleTest recreates flighting-style A/B tests inside the
//     simulator (§3.1.1);
//   - TrainML fits the iBoxML deep state-space delay model (§4);
//   - the internal packages provide the substrates: a discrete-event
//     network simulator (internal/netsim), congestion-control suite
//     (internal/cc), synthetic Pantheon corpus (internal/pantheon), neural
//     networks (internal/nn), SAX behaviour discovery (internal/sax) and a
//     statistics toolkit (internal/stats).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record of every table and
// figure.
package ibox

import (
	"ibox/internal/core"
	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/pantheon"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// Re-exported core types. Aliases keep the public surface small while the
// implementation lives in internal packages.
type (
	// Trace is an input–output packet trace (the unit of training data).
	Trace = trace.Trace
	// Packet is one packet record within a Trace.
	Packet = trace.Packet
	// Series is a regularly sampled time series (rates, delays, cross
	// traffic).
	Series = trace.Series
	// Model is a fitted iBoxNet model.
	Model = core.Model
	// Params are learnt iBoxNet parameters (b, d, B, C of Fig 1).
	Params = iboxnet.Params
	// Variant selects the iBoxNet flavour (Full, NoCT, StatLoss).
	Variant = iboxnet.Variant
	// Metrics summarizes one flow (throughput, p95 delay, loss).
	Metrics = core.Metrics
	// EnsembleResult is an A/B ensemble-test outcome.
	EnsembleResult = core.EnsembleResult
	// MLModel is a trained iBoxML deep state-space delay model.
	MLModel = iboxml.Model
	// MLConfig parameterizes iBoxML training.
	MLConfig = iboxml.Config
	// TrainingSample pairs a trace with its cross-traffic estimate.
	TrainingSample = iboxml.TrainingSample
	// Profile is a family of synthetic network paths.
	Profile = pantheon.Profile
	// Corpus is a set of instances plus one protocol's traces over them.
	Corpus = pantheon.Corpus
	// Time is a simulation timestamp in nanoseconds.
	Time = sim.Time
)

// iBoxNet variants (Fig 2 and the Fig 3 ablations).
const (
	Full     = iboxnet.Full
	NoCT     = iboxnet.NoCT
	StatLoss = iboxnet.StatLoss
)

// Common durations re-exported for configuring runs.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Fit learns an iBoxNet model from a single input–output trace.
func Fit(tr *Trace, v Variant) (*Model, error) { return core.Fit(tr, v) }

// Estimate learns raw iBoxNet parameters with default estimator settings.
func Estimate(tr *Trace) (Params, error) {
	return iboxnet.Estimate(tr, iboxnet.EstimatorConfig{})
}

// MetricsOf summarizes a trace.
func MetricsOf(tr *Trace) Metrics { return core.MetricsOf(tr) }

// EnsembleTest runs the §3.1.1 ensemble A/B test over a corpus of
// control-protocol traces.
func EnsembleTest(c *Corpus, treatment string, v Variant, dur Time, seed int64) (*EnsembleResult, error) {
	return core.EnsembleTest(c, treatment, v, dur, seed)
}

// TrainML fits an iBoxML deep state-space delay model (§4).
func TrainML(samples []TrainingSample, cfg MLConfig) (*MLModel, error) {
	return iboxml.Train(samples, cfg)
}

// IndiaCellular returns the synthetic cellular path profile used
// throughout the paper's evaluation.
func IndiaCellular() Profile { return pantheon.IndiaCellular() }

// Ethernet returns a wired path profile.
func Ethernet() Profile { return pantheon.Ethernet() }

// CellularReorder returns the cellular profile with multipath reordering
// (the Fig 5 / Fig 8 corpus).
func CellularReorder() Profile { return pantheon.CellularReorder() }

// GenerateCorpus samples n path instances from a profile and runs the
// named protocol over each, producing a training/evaluation corpus.
func GenerateCorpus(p Profile, n int, protocol string, dur Time, seed int64) (*Corpus, error) {
	return pantheon.Generate(p, n, protocol, dur, seed)
}

// ReorderPredictor predicts per-packet reordering probabilities (§5.1).
type ReorderPredictor = iboxml.ReorderPredictor

// TrainReorderLinear fits the lightweight linear logistic reordering
// predictor of §5.1 on (trace, cross-traffic estimate) samples.
func TrainReorderLinear(samples []TrainingSample, useCT bool, seed int64) (ReorderPredictor, error) {
	return iboxml.TrainLinearReorder(samples, useCT, seed)
}

// AugmentReordering grafts predicted reordering onto an (in-order)
// iBoxNet-simulated trace — the §5.1 melding of network model and ML.
func AugmentReordering(tr *Trace, pred ReorderPredictor, ct *Series, seed int64) *Trace {
	return iboxml.AugmentReordering(tr, pred, ct, seed)
}
