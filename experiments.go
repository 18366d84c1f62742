package vasched

import (
	"context"
	"fmt"

	"vasched/internal/experiments"
	"vasched/internal/metrics"
)

// Scale selects how much work RunExperiment does.
type Scale string

// Experiment scales.
const (
	// ScaleQuick uses small die batches and short timelines — seconds per
	// experiment, suitable for smoke tests.
	ScaleQuick Scale = "quick"
	// ScaleDefault uses the paper's 200-die batches and longer timelines.
	ScaleDefault Scale = "default"
)

// ExperimentIDs lists the runnable reproductions of the paper's tables and
// figures ("table5", "fig4" ... "fig15", "sec74", "sann"); see DESIGN.md
// section 3 for the mapping.
func ExperimentIDs() []string { return experiments.IDs() }

// RunOption adjusts how RunExperimentResult executes an experiment.
type RunOption func(*runConfig)

type runConfig struct {
	workers    int
	ctx        context.Context
	decideHist *metrics.LatencyHist
	cluster    experiments.ShardRunner
	adaptive   *experiments.AdaptiveConfig
}

// WithWorkers bounds the die-level parallelism of the farm engine: n
// worker goroutines fan the experiment's die batch (0 means GOMAXPROCS,
// 1 reproduces the serial path). Results are bit-identical at every
// setting (see internal/farm).
func WithWorkers(n int) RunOption {
	return func(c *runConfig) { c.workers = n }
}

// WithContext attaches a cancellation context: cancelling it stops
// in-flight die work between farm tasks and aborts the experiment.
func WithContext(ctx context.Context) RunOption {
	return func(c *runConfig) { c.ctx = ctx }
}

// WithDecideHist collects the latency of every power-manager Decide call
// the experiment makes into h (one Observe per call, in seconds). The
// histogram is safe to share across concurrent experiments; passing it
// does not change any experiment output. With WithCluster, Decide calls
// that run on remote workers (the DVFS sweeps' kernels) are not observed.
func WithDecideHist(h *metrics.LatencyHist) RunOption {
	return func(c *runConfig) { c.decideHist = h }
}

// WithCluster routes the experiment's die loops (every die × trial grid:
// the die-batch figures, the fig7–13 and sec74 sweeps, and the extension
// grids) through a sharded worker cluster (internal/cluster's Client is the production
// ShardRunner; cmd/vaschedd -workers wires it up). Clustered runs are
// byte-identical to local ones, and a run degrades back to local
// execution when the whole cluster is unavailable, so attaching a
// cluster never changes any experiment output.
func WithCluster(r experiments.ShardRunner) RunOption {
	return func(c *runConfig) { c.cluster = r }
}

// WithAdaptive switches the ext-adapt experiment into adaptive stratified
// sampling: dies are drawn from severity strata round by round until the
// target metric's confidence interval is tight enough, instead of always
// evaluating the full population (see internal/adapt and DESIGN.md §12).
// cfg.Exact selects the verification mode, which evaluates every die in
// index order and reproduces the exact full-batch mean bit-for-bit.
// Experiments other than ext-adapt ignore the option entirely.
func WithAdaptive(cfg experiments.AdaptiveConfig) RunOption {
	return func(c *runConfig) { c.adaptive = &cfg }
}

// RunExperiment executes one experiment and returns its rendered report.
func RunExperiment(id string, scale Scale, opts ...RunOption) (string, error) {
	res, err := RunExperimentResult(id, scale, opts...)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// ExperimentResult is a typed experiment outcome: it renders as the
// paper's plot/table and marshals to JSON through its exported fields
// (every experiment result is a plain struct).
type ExperimentResult interface {
	Render() string
}

// RunExperimentResult executes one experiment and returns its typed
// result, for callers that want the numbers rather than the rendering.
// Every result is a plain exported struct that marshals to JSON and back
// without loss (the cmd/vaschedd job API relies on this).
func RunExperimentResult(id string, scale Scale, opts ...RunOption) (ExperimentResult, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	var (
		env *experiments.Env
		err error
	)
	switch scale {
	case ScaleQuick:
		env, err = experiments.QuickEnv()
	case ScaleDefault, "":
		env, err = experiments.DefaultEnv()
	default:
		return nil, fmt.Errorf("vasched: unknown scale %q", scale)
	}
	if err != nil {
		return nil, err
	}
	env.Workers = cfg.workers
	if cfg.ctx != nil {
		env.SetContext(cfg.ctx)
	}
	env.DecideHist = cfg.decideHist
	if cfg.cluster != nil {
		env.Cluster = cfg.cluster
	}
	env.Adaptive = cfg.adaptive
	return experiments.Run(id, env)
}
